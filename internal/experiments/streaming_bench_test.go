package experiments

// BenchmarkVulnerabilityReduction compares the buffered reference against
// the streaming reducer: same workload,
// same curves, different reduction memory. bytes/op comes from -benchmem;
// peak RSS is sampled from the kernel per sub-benchmark (Linux only).

import (
	"bytes"
	"os"
	"strconv"
	"testing"

	"github.com/bgpsim/bgpsim/internal/topology"
)

// resetPeakRSS asks the kernel to reset the process high-water mark
// (VmHWM) to the current RSS, so each sub-benchmark measures its own
// peak. Best-effort: a non-Linux kernel just leaves the metric at the
// process-lifetime peak.
func resetPeakRSS() {
	os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) //nolint:errcheck // best-effort, Linux-only
}

// peakRSSKB reads VmHWM from /proc/self/status; 0 if unavailable.
func peakRSSKB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		if !bytes.HasPrefix(line, []byte("VmHWM:")) {
			continue
		}
		fields := bytes.Fields(line[len("VmHWM:"):])
		if len(fields) == 0 {
			return 0
		}
		kb, err := strconv.ParseFloat(string(fields[0]), 64)
		if err != nil {
			return 0
		}
		return kb
	}
	return 0
}

// BenchmarkVulnerabilityReduction runs the Figure 2 panel through the
// buffered reference and the streaming reducer. The streaming path must
// allocate strictly less per op (one reused pollution buffer instead of
// materialized per-curve result vectors).
func BenchmarkVulnerabilityReduction(b *testing.B) {
	w := world(b)
	cfg := VulnerabilityConfig{AttackerSample: 400, Seed: 3}
	b.Run("buffered", func(b *testing.B) {
		b.ReportAllocs()
		resetPeakRSS()
		for i := 0; i < b.N; i++ {
			if _, err := bufferedVulnerabilityPanel(w, cfg, topology.UnderTier1, "bench"); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(peakRSSKB(), "peakRSS-KB")
	})
	b.Run("streaming", func(b *testing.B) {
		b.ReportAllocs()
		resetPeakRSS()
		for i := 0; i < b.N; i++ {
			if _, err := Fig2(w, cfg); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(peakRSSKB(), "peakRSS-KB")
	})
}
