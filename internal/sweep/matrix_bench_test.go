package sweep

import (
	"fmt"
	"testing"

	"github.com/bgpsim/bgpsim/internal/core"
)

// BenchmarkMatrixShards measures the `-shard` path's cost on the shared
// test matrix: the same cell space solved as 1, 2, and 4 shards, each on
// its own RunShard over a fixed worker pool, then merged. Every shard adds
// a bounded reorder window and a merge replays the records, so the cost
// shows up directly against the one-shard baseline.
func BenchmarkMatrixShards(b *testing.B) {
	m, cells := testMatrix(b)
	extract := func(_, _ int, o *core.Outcome) int { return o.PollutedCount() }
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				n := 0
				if err := mergeShards(m, 4, shards, extract, ReduceFunc[int]{EmitFn: func(int, int) { n++ }}); err != nil {
					b.Fatal(err)
				}
				if n != cells {
					b.Fatalf("%d records, want %d", n, cells)
				}
			}
		})
	}
}
