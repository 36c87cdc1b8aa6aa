package topology

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"testing"
)

// writeGraphDump writes w a canonical dump of g: the node count, whether
// the region and address-weight columns exist, then per node its ASN,
// region, address weight and adjacency (neighbor index and relationship,
// in stored order).
func writeGraphDump(w io.Writer, g *Graph) {
	var buf [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		w.Write(buf[:])
	}
	put(int64(g.N()))
	put(boolInt(g.region != nil))
	put(boolInt(g.addrWeight != nil))
	for i := 0; i < g.N(); i++ {
		put(int64(g.ASN(i).Uint32()))
		put(int64(g.Region(i)))
		put(g.AddrWeight(i))
		nbrs, rels := g.Neighbors(i)
		put(int64(len(nbrs)))
		for k, nb := range nbrs {
			put(int64(nb))
			put(int64(rels[k]))
		}
	}
}

func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// graphDigest is the hex sha256 of g's canonical dump.
func graphDigest(g *Graph) string {
	h := sha256.New()
	writeGraphDump(h, g)
	return hex.EncodeToString(h.Sum(nil))
}

// contractionDigest is the hex sha256 of the contracted graph's dump
// followed by NodeMap and Groups.
func contractionDigest(c *Contraction) string {
	h := sha256.New()
	writeGraphDump(h, c.Graph)
	var buf [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	put(int64(len(c.NodeMap)))
	for _, v := range c.NodeMap {
		put(int64(v))
	}
	put(int64(len(c.Groups)))
	for _, grp := range c.Groups {
		put(int64(len(grp)))
		for _, v := range grp {
			put(int64(v))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGeneratePinnedDigests pins the generated topology, and its sibling
// contraction, across commits: any change to the generator's draws, the
// CSR layout or the contraction shows here as a changed digest. The
// 42,697-AS rows are the paper-scale world every experiment runs on.
func TestGeneratePinnedDigests(t *testing.T) {
	cases := []struct {
		n          int
		seed       int64
		graph, con string
	}{
		{200, 1,
			"8519fa05ef832279402ef3e790004b46e36d7b7fc72baf0bfea66babfb67e53c",
			"cf228fac0012aec1960cb9e39c92f36f11d28759f2b8291ec01e3c71ebe55d50"},
		{200, 42,
			"723dfdfdbbade4aa65dd2f903be90f23d9e661a571944d9af4f255d3e99e616c",
			"55bf5404d55a0ac9447d98c6aa6707975b5c7113be673bcec41fe5bb447d78c1"},
		{2000, 1,
			"17c7970b59de166213c15ccdd6dd305ecc33390540b3ecf9065ed3919eb27fdd",
			"e02bda166aa0ee8d9406457a89671b0ef8849e9eb0febf0bc430d554a4e69bfb"},
		{2000, 42,
			"5a6638979f0a6eb913b5229ad5812d7001a2bf3e825f7c4f97aaf7597ff8e1f4",
			"66b71b5cead644a28c99aef931c5d4e5dc346287e90a8478b8dc78f4578ebb01"},
		{42697, 1,
			"725c2a64fe271abcd184766798a7ce04c21f042f5445945f09f47a5ca0434d7c",
			"2cdcc0e73a2ec116571b2c0ee1dd301d02ab22fbf090ab436344c427f23a2184"},
		{42697, 42,
			"6037adf3d422d060b241c26012277b46f2a82b9bbb39e32863fdfc7f3acf4872",
			"88ab8148343e88c1f6d9744ebb1865bd091e8214e3e3280992455f9cf9bb0e23"},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("n%d_seed%d", tc.n, tc.seed), func(t *testing.T) {
			p := DefaultParams(tc.n)
			p.Seed = tc.seed
			g := MustGenerate(p)
			if got := graphDigest(g); got != tc.graph {
				t.Errorf("Generate digest = %s, want %s", got, tc.graph)
			}
			con, err := ContractSiblings(g)
			if err != nil {
				t.Fatal(err)
			}
			if got := contractionDigest(con); got != tc.con {
				t.Errorf("ContractSiblings digest = %s, want %s", got, tc.con)
			}
		})
	}
}
