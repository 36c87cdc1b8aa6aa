package hijack

import (
	"path/filepath"
	"runtime"
	"testing"

	"github.com/bgpsim/bgpsim/internal/sweep"
)

// TestReadShardAllocs guards the allocation count of reading a recio
// shard, a machine-independent proxy for its cost: the decoder inflates
// with pooled gzip readers, sizes each segment's columns once and each
// whole-file column once, and fills the records in place, so a 50,000-
// record shard of 25 segments allocates per file and per segment, never
// per record. Most of what remains is compress/flate's Huffman link
// tables, built per deflate block.
func TestReadShardAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const records = 50000
	const measured = 278 // ReadShard of this shard when the guard was set
	f := &sweep.ShardFile[Record]{
		Experiment: "allocs", Cells: records, Groups: 1, Shards: 1, CellHi: records,
		MatrixDigest: "read-shard-allocs", Records: make([]Record, records),
	}
	for i := range f.Records {
		f.Records[i] = Record{Pollution: i * 37 % 2000, WeightFrac: float64(i%997) / 997}
	}
	codec := sweep.ColumnarCodec[Record]{}
	path := filepath.Join(t.TempDir(), "allocs.rec")
	if err := codec.WriteShard(path, f); err != nil {
		t.Fatal(err)
	}
	var got *sweep.ShardFile[Record]
	allocs := testing.AllocsPerRun(5, func() {
		var err error
		if got, err = codec.ReadShard(path); err != nil {
			t.Fatal(err)
		}
	})
	for i := range f.Records {
		if got.Records[i] != f.Records[i] {
			t.Fatalf("record %d: read %+v, wrote %+v", i, got.Records[i], f.Records[i])
		}
	}
	if max := measured * 1.25; allocs > max {
		t.Errorf("ReadShard of %d records allocates %.0f times, want at most %.0f", records, allocs, max)
	}
	t.Logf("ReadShard of %d records allocates %.0f times", records, allocs)
}
