package sweep

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"github.com/bgpsim/bgpsim/internal/recio"
)

// benchRecord mirrors the shape of the scan tools' records (see
// hijack.Record): one small int plus one float64 whose JSON text
// repeats field names every record, which recio's columns drop. It
// carries the columnar mapping recio needs.
type benchRecord struct {
	Pollution  int     `json:"pollution"`
	WeightFrac float64 `json:"weight_frac"`
}

func (benchRecord) ColumnFields() []recio.Field {
	return []recio.Field{
		{Name: "pollution", Kind: recio.KindDelta},
		{Name: "weight_frac", Kind: recio.KindFloat},
	}
}

func (r benchRecord) ColumnValues() []uint64 {
	return []uint64{uint64(r.Pollution), math.Float64bits(r.WeightFrac)}
}

func (r *benchRecord) SetColumnValues(vals []uint64) {
	r.Pollution = int(vals[0])
	r.WeightFrac = math.Float64frombits(vals[1])
}

const benchRecords = 20000

func benchShard() *ShardFile[benchRecord] {
	recs := make([]benchRecord, benchRecords)
	for i := range recs {
		recs[i] = benchRecord{
			Pollution:  i * 37 % 1200,
			WeightFrac: float64(i%997) / 997,
		}
	}
	return &ShardFile[benchRecord]{
		Experiment:   "bench",
		Cells:        benchRecords,
		Groups:       4,
		Shards:       1,
		CellHi:       benchRecords,
		MatrixDigest: "57a7ab1e0000000000000000000000000000000000000000000000000000beef",
		Records:      recs,
	}
}

// BenchmarkShardEncode measures each codec writing one 20k-record
// shard. bytes/op counts the records' logical size; disk-B reports the
// bytes that actually landed on disk, so the recio/json ratio can be
// read straight off the two sub-benchmarks.
func BenchmarkShardEncode(b *testing.B) {
	sf := benchShard()
	for _, name := range []string{FormatJSON, FormatRecio} {
		b.Run(name, func(b *testing.B) {
			codec, err := CodecFor[benchRecord](name, 0)
			if err != nil {
				b.Fatal(err)
			}
			path := filepath.Join(b.TempDir(), "shard."+codec.Ext())
			var size int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := codec.WriteShard(path, sf); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			st, err := os.Stat(path)
			if err != nil {
				b.Fatal(err)
			}
			size = st.Size()
			b.SetBytes(size)
			b.ReportMetric(float64(size), "disk-B")
		})
	}
}

// BenchmarkShardDecode measures each codec reading the same shard back.
func BenchmarkShardDecode(b *testing.B) {
	sf := benchShard()
	for _, name := range []string{FormatJSON, FormatRecio} {
		b.Run(name, func(b *testing.B) {
			codec, err := CodecFor[benchRecord](name, 0)
			if err != nil {
				b.Fatal(err)
			}
			path := filepath.Join(b.TempDir(), "shard."+codec.Ext())
			if err := codec.WriteShard(path, sf); err != nil {
				b.Fatal(err)
			}
			st, err := os.Stat(path)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(st.Size())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				got, err := codec.ReadShard(path)
				if err != nil {
					b.Fatal(err)
				}
				if len(got.Records) != benchRecords {
					b.Fatalf("%d records", len(got.Records))
				}
			}
		})
	}
}

// BenchmarkShardResumeReplay measures the resume path's fixed cost when
// a crash took the index trailer with it: recovering a truncated recio
// shard's clean prefix by inflating and re-checking every segment before
// any solving starts.
func BenchmarkShardResumeReplay(b *testing.B) {
	sf := benchShard()
	codec := ColumnarCodec[benchRecord]{}
	path := filepath.Join(b.TempDir(), "shard."+codec.Ext())
	if err := codec.WriteShard(path, sf); err != nil {
		b.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		b.Fatal(err)
	}
	// Slice mid-file so the scan walks a damaged tail like a real crash.
	cut := path + ".cut"
	if err := os.WriteFile(cut, data[:len(data)*9/10], 0o644); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data) * 9 / 10))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec, err := recio.RecoverStatsFile(cut)
		if err != nil {
			b.Fatal(err)
		}
		if rec.ViaIndex || rec.Records == 0 || rec.Records >= benchRecords {
			b.Fatalf("recovered %d records (via index %v) from a truncated file", rec.Records, rec.ViaIndex)
		}
	}
}

// BenchmarkShardSeekResume measures the seek resume path over the same
// shard: with an intact index trailer, counting and CRC-verifying the
// clean prefix is a seek plus a checksum sweep — no segment inflates,
// no record replays. Compare against BenchmarkShardResumeReplay, the
// scan path's cost on the same data.
func BenchmarkShardSeekResume(b *testing.B) {
	sf := benchShard()
	codec := ColumnarCodec[benchRecord]{}
	path := filepath.Join(b.TempDir(), "shard."+codec.Ext())
	if err := codec.WriteShard(path, sf); err != nil {
		b.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(st.Size())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec, err := recio.RecoverStatsFile(path)
		if err != nil {
			b.Fatal(err)
		}
		if !rec.ViaIndex || rec.Records != benchRecords {
			b.Fatalf("seek resume fell back: viaIndex=%v records=%d", rec.ViaIndex, rec.Records)
		}
	}
}

// BenchmarkShardColumnRead measures the columnar layout's selling
// point: folding one field of a recio shard without inflating its
// siblings.
func BenchmarkShardColumnRead(b *testing.B) {
	sf := benchShard()
	codec := ColumnarCodec[benchRecord]{}
	path := filepath.Join(b.TempDir(), "shard."+codec.Ext())
	if err := codec.WriteShard(path, sf); err != nil {
		b.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(st.Size())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vals, err := ReadShardColumn(path, "pollution")
		if err != nil {
			b.Fatal(err)
		}
		if len(vals) != benchRecords {
			b.Fatalf("%d values", len(vals))
		}
	}
}
