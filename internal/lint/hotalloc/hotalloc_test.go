package hotalloc

import (
	"testing"

	"github.com/bgpsim/bgpsim/internal/lint/linttest"
)

func TestHotpathAllocations(t *testing.T) {
	linttest.Run(t, Analyzer, "testdata/src/hotalloc_a", "hotalloc_a")
}

func TestArenaDrop(t *testing.T) {
	linttest.Run(t, Analyzer, "testdata/src/hotalloc_b", "hotalloc_b")
}
