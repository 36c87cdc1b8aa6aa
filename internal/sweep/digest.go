// Workload identity: MatrixDigest hashes the exact cell space a matrix
// describes — every attack (scenario kind included), every deployed
// defense (ROV blocked set, ASPA validator set, Peerlock), the policy's
// routing graph, plus the matrix's Ident — into one SHA-256 value. Two
// processes that rebuild the same workload from the same flags (world
// scale, seeds, defaults) compute the same digest, and any divergence
// (different topology seed, a changed sample size or probe set,
// -no-tier1-spf toggled) changes it. Shard files embed the digest at
// write time; resume and merge validate it against the freshly rebuilt
// workload, so records can never be silently replayed into the wrong
// experiment.
package sweep

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"

	"github.com/bgpsim/bgpsim/internal/asn"
	"github.com/bgpsim/bgpsim/internal/core"
)

// MatrixDigest returns the hex SHA-256 identity of the matrix's cell
// workload. Cost is one Job/Policy callback pass over the cell space
// plus one adjacency walk per distinct policy — cheap next to solving
// (no BFS runs), so shard and merge invocations recompute it freely.
func MatrixDigest(m Matrix) string {
	h := sha256.New()
	buf := make([]byte, binary.MaxVarintLen64)
	put := func(v int64) {
		n := binary.PutVarint(buf, v)
		h.Write(buf[:n])
	}
	put(int64(m.Groups))
	// Policies and deployment sets repeat across cells; fingerprint each
	// distinct pointer once and feed the cached value per use. Pointers
	// never enter the hash — only content does — so the digest is
	// stable across processes and machines.
	polFP := make(map[*core.Policy][sha256.Size]byte, 2)
	setFP := make(map[*asn.IndexSet][sha256.Size]byte, 2)
	setFingerprint := func(s *asn.IndexSet) [sha256.Size]byte {
		fp, ok := setFP[s]
		if !ok {
			fp = blockedFingerprint(s)
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
			fp = policyFingerprint(pol)
			polFP[pol] = fp
		}
		h.Write(fp[:])
		for k := 0; k < size; k++ {
			at, def := m.Job(g, k)
			// The original cell encoding covered (target, attacker,
			// sub-prefix, blocked set). Scenario cells — a non-origin
			// attack kind or a defense beyond the blocked set — prefix
			// an extension block flagged by a -1 sentinel, which a
			// legacy cell can never produce (targets are indices ≥ 0).
			// Exact-origin blocked-only workloads therefore hash exactly
			// as they did before the scenario layer existed.
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

// policyFingerprint hashes the routing substrate a policy solves over:
// node count, tier-1 flags and SPF override, the per-relationship
// adjacency, and each node's ASN — everything that makes two "same
// scale" worlds genuinely the same world.
func policyFingerprint(pol *core.Policy) [sha256.Size]byte {
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
		putAdj(h, put, pol.Providers(i))
		putAdj(h, put, pol.Customers(i))
		putAdj(h, put, pol.Peers(i))
	}
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}

func putAdj(h hash.Hash, put func(int64), adj []int32) {
	put(int64(len(adj)))
	for _, v := range adj {
		put(int64(v))
	}
}

// blockedFingerprint hashes an origin-validation deployment set by
// content (member indices), with a distinct value for "no deployment".
func blockedFingerprint(s *asn.IndexSet) [sha256.Size]byte {
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
