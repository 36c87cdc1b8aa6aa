package sweep

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"

	"github.com/bgpsim/bgpsim/internal/asn"
	"github.com/bgpsim/bgpsim/internal/core"
)

// matrixDigestOracle is the unbuffered MatrixDigest the buffered one
// replaced, kept verbatim: one hash.Write per varint, a map lookup per
// set per cell. Every digest a persisted shard carries was computed by
// this code, so the buffered digest must equal it on every matrix.
func matrixDigestOracle(m Matrix) string {
	h := sha256.New()
	buf := make([]byte, binary.MaxVarintLen64)
	put := func(v int64) {
		n := binary.PutVarint(buf, v)
		h.Write(buf[:n])
	}
	put(int64(m.Groups))
	polFP := make(map[*core.Policy][sha256.Size]byte, 2)
	setFP := make(map[*asn.IndexSet][sha256.Size]byte, 2)
	setFingerprint := func(s *asn.IndexSet) [sha256.Size]byte {
		fp, ok := setFP[s]
		if !ok {
			fp = blockedFingerprintOracle(s)
			setFP[s] = fp
		}
		return fp
	}
	for g := 0; g < m.Groups; g++ {
		size := m.Size(g)
		put(int64(size))
		pol := m.Policy(g)
		fp, ok := polFP[pol]
		if !ok {
			fp = policyFingerprintOracle(pol)
			polFP[pol] = fp
		}
		h.Write(fp[:])
		for k := 0; k < size; k++ {
			at, def := m.Job(g, k)
			if at.Kind != core.KindOrigin || def.ASPA != nil || def.Peerlock {
				put(-1)
				put(int64(at.Kind))
				if def.Peerlock {
					put(1)
				} else {
					put(0)
				}
				afp := setFingerprint(def.ASPA)
				h.Write(afp[:])
			}
			put(int64(at.Target))
			put(int64(at.Attacker))
			if at.SubPrefix {
				put(1)
			} else {
				put(0)
			}
			bfp := setFingerprint(def.Blocked)
			h.Write(bfp[:])
		}
	}
	if len(m.Ident) > 0 {
		put(int64(len(m.Ident)))
		h.Write(m.Ident)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// policyFingerprintOracle is the unbuffered policyFingerprint, verbatim.
func policyFingerprintOracle(pol *core.Policy) [sha256.Size]byte {
	h := sha256.New()
	buf := make([]byte, binary.MaxVarintLen64)
	put := func(v int64) {
		n := binary.PutVarint(buf, v)
		h.Write(buf[:n])
	}
	if pol == nil {
		return sha256.Sum256(nil)
	}
	n := pol.N()
	put(int64(n))
	if pol.Tier1ShortestPath() {
		put(1)
	} else {
		put(0)
	}
	if pol.PreferHighNextHop() {
		put(1)
	} else {
		put(0)
	}
	g := pol.Graph()
	for i := 0; i < n; i++ {
		put(int64(g.ASN(i).Uint32()))
		if pol.IsTier1(i) {
			put(1)
		} else {
			put(0)
		}
		putAdjOracle(h, put, pol.Providers(i))
		putAdjOracle(h, put, pol.Customers(i))
		putAdjOracle(h, put, pol.Peers(i))
	}
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}

func putAdjOracle(h hash.Hash, put func(int64), adj []int32) {
	put(int64(len(adj)))
	for _, v := range adj {
		put(int64(v))
	}
}

// blockedFingerprintOracle is the unbuffered blockedFingerprint, verbatim.
func blockedFingerprintOracle(s *asn.IndexSet) [sha256.Size]byte {
	if s == nil {
		return sha256.Sum256(nil)
	}
	h := sha256.New()
	buf := make([]byte, binary.MaxVarintLen64)
	n := binary.PutVarint(buf, int64(s.Len()))
	h.Write(buf[:n])
	for _, i := range s.Members(nil) {
		n := binary.PutVarint(buf, int64(i))
		h.Write(buf[:n])
	}
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}

// pinnedPolicyFingerprint is policyFingerprint of the 2,000-AS seed-1
// test world (testPolicy), captured from the unbuffered implementation.
const pinnedPolicyFingerprint = "d5af57e3f1816e9329122ef954bb0352946b2e2ac82ed13368b90a6613ffc95f"

// TestPolicyFingerprintPinned pins the routing-substrate fingerprint at
// 2,000 ASes by value and holds it, and its variants, to the oracle.
func TestPolicyFingerprintPinned(t *testing.T) {
	pol, g := testPolicy(t, 2000)
	fp := policyFingerprint(pol)
	if got := hex.EncodeToString(fp[:]); got != pinnedPolicyFingerprint {
		t.Errorf("policyFingerprint at 2,000 ASes changed:\n got %s\nwant %s", got, pinnedPolicyFingerprint)
	}
	high, err := core.NewPolicy(g, tier1Of(t, g), core.WithPreferHighNextHop(true))
	if err != nil {
		t.Fatal(err)
	}
	spf, err := core.NewPolicy(g, tier1Of(t, g), core.WithTier1ShortestPath(false))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []*core.Policy{pol, high, spf, nil} {
		if policyFingerprint(p) != policyFingerprintOracle(p) {
			t.Errorf("policyFingerprint differs from the oracle (policy %p)", p)
		}
	}
	if policyFingerprint(high) == policyFingerprint(pol) || policyFingerprint(spf) == policyFingerprint(pol) {
		t.Error("policy options do not change the fingerprint")
	}
}

// digestPolicies returns the small policies the digest tests draw from:
// the default and a tie-break variant over one 60-AS world, and nil.
func digestPolicies(t testing.TB) []*core.Policy {
	pol, g := testPolicy(t, 60)
	high, err := core.NewPolicy(g, tier1Of(t, g), core.WithPreferHighNextHop(true))
	if err != nil {
		t.Fatal(err)
	}
	return []*core.Policy{pol, high, nil}
}

// byteStream reads fuzz input one value at a time, yielding zeros once
// the input runs out, so every input describes some matrix.
type byteStream struct {
	b []byte
	i int
}

func (s *byteStream) next() int {
	if s.i >= len(s.b) {
		return 0
	}
	s.i++
	return int(s.b[s.i-1])
}

// fuzzMatrix decodes a matrix from fuzz bytes: up to 5 groups of up to
// 63 cells over the given policies, every attack kind and the sub-prefix
// flag, and Blocked/ASPA sets drawn as nil, one of two shared pointers,
// a fresh pointer per cell (same content as a shared one, or its own),
// with Peerlock on or off and an optional Ident.
func fuzzMatrix(data []byte, pols []*core.Policy) Matrix {
	s := &byteStream{b: data}
	const n = 64
	mkSet := func(members ...int) *asn.IndexSet {
		set := asn.NewIndexSet(n)
		for _, i := range members {
			set.Add(i % n)
		}
		return set
	}
	shared := []*asn.IndexSet{mkSet(1, 5, 9), mkSet(0, 63)}
	pick := func() *asn.IndexSet {
		switch c := s.next() % 5; c {
		case 0:
			return nil
		case 1, 2:
			return shared[c-1]
		case 3:
			return mkSet(1, 5, 9)
		default:
			return mkSet(s.next(), s.next(), s.next())
		}
	}
	groups := s.next() % 6
	type cell struct {
		at  core.Attack
		def core.Defense
	}
	cells := make([][]cell, groups)
	gpol := make([]*core.Policy, groups)
	for g := range cells {
		gpol[g] = pols[s.next()%len(pols)]
		cells[g] = make([]cell, s.next()%64)
		for k := range cells[g] {
			flags := s.next()
			c := cell{at: core.Attack{
				Target:    s.next(),
				Attacker:  s.next() * (1 + (flags>>7)*300), // past one varint byte
				SubPrefix: flags&1 != 0,
				Kind:      core.AttackKind((flags >> 1) % 3),
			}}
			c.def.Blocked = pick()
			if flags&8 != 0 {
				c.def.ASPA = pick()
			}
			c.def.Peerlock = flags&16 != 0
			cells[g][k] = c
		}
	}
	m := Matrix{
		Groups: groups,
		Size:   func(g int) int { return len(cells[g]) },
		Policy: func(g int) *core.Policy { return gpol[g] },
		Job: func(g, k int) (core.Attack, core.Defense) {
			c := cells[g][k]
			return c.at, c.def
		},
	}
	if l := s.next() % 40; l > 0 {
		m.Ident = make([]byte, l)
		for i := range m.Ident {
			m.Ident[i] = byte(s.next())
		}
	}
	return m
}

// TestMatrixDigestMatchesOracle holds MatrixDigest to the unbuffered
// oracle on the two-policy test matrix and the empty matrix;
// FuzzMatrixDigest's seed corpus covers the scenario branches.
func TestMatrixDigestMatchesOracle(t *testing.T) {
	m, _ := testMatrix(t)
	for _, m := range []Matrix{m, {}} {
		if got, want := MatrixDigest(m), matrixDigestOracle(m); got != want {
			t.Errorf("%d groups: got %s, oracle %s", m.Groups, got, want)
		}
	}
}

// digestSeeds are fuzz inputs that reach every branch of the decoder.
func digestSeeds() [][]byte {
	seeds := [][]byte{
		nil,
		{1, 0, 0},
		{1, 2, 3, 0, 4, 7, 1, 0, 0, 9, 8, 2},
		{5, 0, 40, 255, 1, 2, 3, 4, 1, 30},
	}
	long := make([]byte, 4096)
	for i := range long {
		long[i] = byte(i*131 + i>>3)
	}
	long[0] = 5
	return append(seeds, long)
}

// FuzzMatrixDigest holds the buffered MatrixDigest to the unbuffered
// oracle on random matrices.
func FuzzMatrixDigest(f *testing.F) {
	for _, s := range digestSeeds() {
		f.Add(s)
	}
	pols := digestPolicies(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		m := fuzzMatrix(data, pols)
		if got, want := MatrixDigest(m), matrixDigestOracle(m); got != want {
			t.Fatalf("MatrixDigest %s, oracle %s", got, want)
		}
	})
}
