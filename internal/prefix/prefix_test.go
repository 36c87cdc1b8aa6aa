package prefix

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestParseValid(t *testing.T) {
	tests := []struct {
		in   string
		addr uint32
		len  uint8
	}{
		{"0.0.0.0/0", 0, 0},
		{"10.0.0.0/8", 10 << 24, 8},
		{"129.82.0.0/16", 129<<24 | 82<<16, 16},
		{"192.168.4.0/24", 192<<24 | 168<<16 | 4<<8, 24},
		{"255.255.255.255/32", ^uint32(0), 32},
		{"128.0.0.0/1", 128 << 24, 1},
	}
	for _, tt := range tests {
		got, err := Parse(tt.in)
		if err != nil {
			t.Errorf("Parse(%q) error: %v", tt.in, err)
			continue
		}
		if got.Addr != tt.addr || got.Len != tt.len {
			t.Errorf("Parse(%q) = %v/%d, want %v/%d", tt.in, got.Addr, got.Len, tt.addr, tt.len)
		}
	}
}

func TestParseInvalid(t *testing.T) {
	bad := []string{
		"", "10.0.0.0", "10.0.0.0/33", "10.0.0.0/-1", "10.0.0/8",
		"10.0.0.0.0/8", "256.0.0.0/8", "10.0.0.1/8", "a.b.c.d/8",
		"10..0.0/8", "10.0.0.0/x",
	}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", s)
		}
	}
}

func TestStringRoundTrip(t *testing.T) {
	f := func(addr uint32, length uint8) bool {
		p := New(addr, length%33)
		back, err := Parse(p.String())
		return err == nil && back == p
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMask(t *testing.T) {
	if Mask(0) != 0 {
		t.Error("Mask(0) != 0")
	}
	if Mask(32) != ^uint32(0) {
		t.Error("Mask(32) != all-ones")
	}
	if Mask(8) != 0xff000000 {
		t.Errorf("Mask(8) = %#x", Mask(8))
	}
	if Mask(40) != ^uint32(0) {
		t.Error("Mask clamping failed")
	}
}

func TestCoversAndSubprefix(t *testing.T) {
	super := MustParse("10.0.0.0/8")
	sub := MustParse("10.1.0.0/16")
	other := MustParse("11.0.0.0/8")

	if !super.Covers(sub) {
		t.Error("10/8 should cover 10.1/16")
	}
	if sub.Covers(super) {
		t.Error("10.1/16 must not cover 10/8")
	}
	if !super.Covers(super) {
		t.Error("a prefix covers itself")
	}
	if super.Covers(other) {
		t.Error("10/8 must not cover 11/8")
	}
	if !sub.IsSubprefixOf(super) {
		t.Error("10.1/16 is a subprefix of 10/8")
	}
	if super.IsSubprefixOf(super) {
		t.Error("IsSubprefixOf must be strict")
	}
	if !super.Overlaps(sub) || !sub.Overlaps(super) {
		t.Error("Overlaps should be symmetric for nested prefixes")
	}
	if super.Overlaps(other) {
		t.Error("disjoint prefixes must not overlap")
	}
}

func TestContains(t *testing.T) {
	p := MustParse("129.82.0.0/16")
	if !p.Contains(129<<24 | 82<<16 | 1<<8 | 1) {
		t.Error("129.82.1.1 should be inside 129.82/16")
	}
	if p.Contains(129<<24 | 83<<16) {
		t.Error("129.83.0.0 should be outside 129.82/16")
	}
}

func TestSize(t *testing.T) {
	if got := MustParse("10.0.0.0/8").Size(); got != 1<<24 {
		t.Errorf("/8 Size = %d", got)
	}
	if got := MustParse("1.2.3.4/32").Size(); got != 1 {
		t.Errorf("/32 Size = %d", got)
	}
	if got := MustParse("0.0.0.0/0").Size(); got != 1<<32 {
		t.Errorf("/0 Size = %d", got)
	}
}

func TestCoversTransitivity(t *testing.T) {
	f := func(addr uint32, a, b, c uint8) bool {
		la, lb, lc := a%33, b%33, c%33
		if la > lb {
			la, lb = lb, la
		}
		if lb > lc {
			lb, lc = lc, lb
		}
		if la > lb {
			la, lb = lb, la
		}
		// Nested prefixes derived from one address: shorter covers longer.
		p, q, r := New(addr, la), New(addr, lb), New(addr, lc)
		return p.Covers(q) && q.Covers(r) && p.Covers(r)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTrieExactAndLongest(t *testing.T) {
	var tr Trie[string]
	tr.Insert(MustParse("10.0.0.0/8"), "eight")
	tr.Insert(MustParse("10.1.0.0/16"), "sixteen")
	tr.Insert(MustParse("0.0.0.0/0"), "default")

	if v, ok := tr.Exact(MustParse("10.1.0.0/16")); !ok || v != "sixteen" {
		t.Errorf("Exact(10.1/16) = %q, %v", v, ok)
	}
	if _, ok := tr.Exact(MustParse("10.1.0.0/24")); ok {
		t.Error("Exact should miss unstored prefix")
	}
	v, l, ok := tr.LongestMatch(MustParse("10.1.2.0/24"))
	if !ok || v != "sixteen" || l != 16 {
		t.Errorf("LongestMatch(10.1.2/24) = %q/%d/%v", v, l, ok)
	}
	v, l, ok = tr.LongestMatch(MustParse("10.2.0.0/16"))
	if !ok || v != "eight" || l != 8 {
		t.Errorf("LongestMatch(10.2/16) = %q/%d/%v", v, l, ok)
	}
	v, l, ok = tr.LongestMatch(MustParse("11.0.0.0/8"))
	if !ok || v != "default" || l != 0 {
		t.Errorf("LongestMatch(11/8) = %q/%d/%v", v, l, ok)
	}
}

func TestTrieInsertReplace(t *testing.T) {
	var tr Trie[int]
	tr.Insert(MustParse("10.0.0.0/8"), 1)
	tr.Insert(MustParse("10.0.0.0/8"), 2)
	if v, ok := tr.Exact(MustParse("10.0.0.0/8")); !ok || v != 2 {
		t.Errorf("value = %d, %v after replace, want 2", v, ok)
	}
}

func TestTrieCovering(t *testing.T) {
	var tr Trie[string]
	tr.Insert(MustParse("0.0.0.0/0"), "root")
	tr.Insert(MustParse("10.0.0.0/8"), "eight")
	tr.Insert(MustParse("10.1.0.0/16"), "sixteen")
	tr.Insert(MustParse("10.1.1.0/24"), "not-covering")

	var got []string
	tr.Covering(MustParse("10.1.0.0/16"), func(_ uint8, v string) bool {
		got = append(got, v)
		return true
	})
	want := []string{"root", "eight", "sixteen"}
	if len(got) != len(want) {
		t.Fatalf("Covering = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Covering = %v, want %v", got, want)
		}
	}

	// Early-exit contract.
	calls := 0
	tr.Covering(MustParse("10.1.0.0/16"), func(uint8, string) bool {
		calls++
		return false
	})
	if calls != 1 {
		t.Errorf("Covering ignored early exit, calls = %d", calls)
	}
}

// TestTrieLongestMatchModel cross-checks LongestMatch against a brute-force
// scan over the stored set on random inputs.
func TestTrieLongestMatchModel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var tr Trie[int]
	var stored []Prefix
	for i := 0; i < 300; i++ {
		p := New(rng.Uint32(), uint8(rng.Intn(33)))
		tr.Insert(p, i)
		stored = append(stored, p)
	}
	for i := 0; i < 2000; i++ {
		q := New(rng.Uint32(), uint8(rng.Intn(33)))
		_, gotLen, gotOK := tr.LongestMatch(q)
		bestLen, bestOK := -1, false
		for _, p := range stored {
			if p.Covers(q) && int(p.Len) > bestLen {
				bestLen, bestOK = int(p.Len), true
			}
		}
		if gotOK != bestOK || (gotOK && int(gotLen) != bestLen) {
			t.Fatalf("LongestMatch(%v) = %d/%v, model %d/%v", q, gotLen, gotOK, bestLen, bestOK)
		}
	}
}
