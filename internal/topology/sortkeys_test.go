package topology

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"
)

// FuzzSortKeys holds sortKeys to slices.Sort. Each input byte makes one
// key: with lane < 8 the keys agree with base in every byte but that one
// (so at most 256 distinct keys, most of a long input duplicates); with
// lane ≥ 8 each key is base XOR the eight input bytes from its own.
func FuzzSortKeys(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	long := make([]byte, 600)
	rng.Read(long)
	f.Add([]byte{}, uint64(0), uint8(0))
	f.Add([]byte{3, 1, 2}, uint64(1)<<63, uint8(9))
	f.Add(long[:63], uint64(0), uint8(8))
	f.Add(long[:64], uint64(0), uint8(8))
	f.Add(long, ^uint64(0), uint8(0))
	f.Add(long, uint64(0x0123456789abcdef), uint8(7))
	f.Add(long, uint64(0), uint8(8))
	f.Fuzz(func(t *testing.T, data []byte, base uint64, lane uint8) {
		keys := make([]uint64, len(data))
		for i, b := range data {
			if lane < 8 {
				keys[i] = base ^ uint64(b)<<(8*lane)
				continue
			}
			var w [8]byte
			copy(w[:], data[i:])
			keys[i] = base ^ binary.LittleEndian.Uint64(w[:])
		}
		want := slices.Clone(keys)
		slices.Sort(want)
		sortKeys(keys)
		if !slices.Equal(keys, want) {
			t.Fatalf("sortKeys(%d keys, base %#x, lane %d) differs from slices.Sort", len(keys), base, lane)
		}
	})
}
