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
	d := newDigester()
	d.varint(int64(m.Groups))
	// Policies and deployment sets repeat across cells; fingerprint each
	// distinct pointer once and feed the cached value per use. Pointers
	// never enter the hash — only content does — so the digest is
	// stable across processes and machines.
	polFP := make(map[*core.Policy][sha256.Size]byte, 2)
	blocked, aspa := newSetFingerprints(), newSetFingerprints()
	for g := 0; g < m.Groups; g++ {
		size := m.Size(g)
		d.varint(int64(size))
		pol := m.Policy(g)
		fp, ok := polFP[pol]
		if !ok {
			fp = policyFingerprint(pol)
			polFP[pol] = fp
		}
		d.write(fp[:])
		d.spill()
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
				d.varint(-1)
				d.varint(int64(at.Kind))
				d.flag(def.Peerlock)
				d.write(aspa.of(def.ASPA))
			}
			d.varint(int64(at.Target))
			d.varint(int64(at.Attacker))
			d.flag(at.SubPrefix)
			d.write(blocked.of(def.Blocked))
			d.spill()
		}
	}
	if len(m.Ident) > 0 {
		d.varint(int64(len(m.Ident)))
		d.write(m.Ident)
	}
	return hex.EncodeToString(d.sum(nil))
}

// digestBlock is how many bytes a digester gathers before each hash
// write: varints are one to three bytes, and feeding them one Write at a
// time costs more than hashing them.
const digestBlock = 32 << 10

// digester feeds a SHA-256 through a buffer flushed in digestBlock
// chunks. SHA-256 is a stream hash, so the sum is the same as writing
// every piece straight through.
type digester struct {
	h   hash.Hash
	buf []byte
}

func newDigester() *digester {
	return &digester{h: sha256.New(), buf: make([]byte, 0, 2*digestBlock)}
}

func (d *digester) varint(v int64) { d.buf = binary.AppendVarint(d.buf, v) }

// flag hashes a boolean as the varint 1 or 0.
func (d *digester) flag(on bool) {
	if on {
		d.varint(1)
	} else {
		d.varint(0)
	}
}

func (d *digester) write(p []byte) { d.buf = append(d.buf, p...) }

// spill hashes the buffer once it holds a block. Callers spill once per
// cell or node, so a block overshoots by at most one cell's or node's
// bytes.
func (d *digester) spill() {
	if len(d.buf) >= digestBlock {
		d.flush()
	}
}

func (d *digester) flush() {
	d.h.Write(d.buf)
	d.buf = d.buf[:0]
}

// sum flushes the buffer and appends the hash to b.
func (d *digester) sum(b []byte) []byte {
	d.flush()
	return d.h.Sum(b)
}

// setFingerprints memoizes blockedFingerprint per set pointer for one
// digest. Consecutive cells almost always share their set (over 99.6% of
// cells in the paper's studies), so the last pointer is checked before
// the map; that check takes a sixth off a scenario ladder's digest.
type setFingerprints struct {
	last   *asn.IndexSet
	lastFP [sha256.Size]byte
	seen   map[*asn.IndexSet][sha256.Size]byte
}

func newSetFingerprints() *setFingerprints {
	s := &setFingerprints{seen: make(map[*asn.IndexSet][sha256.Size]byte, 2)}
	s.lastFP = blockedFingerprint(nil)
	return s
}

// of returns the set's fingerprint; the slice aliases the memo and is
// valid until the next call.
func (s *setFingerprints) of(set *asn.IndexSet) []byte {
	if set != s.last {
		fp, ok := s.seen[set]
		if !ok {
			fp = blockedFingerprint(set)
			s.seen[set] = fp
		}
		s.last, s.lastFP = set, fp
	}
	return s.lastFP[:]
}

// policyFingerprint hashes the routing substrate a policy solves over:
// node count, tier-1 flags and SPF override, the per-relationship
// adjacency, and each node's ASN — everything that makes two "same
// scale" worlds genuinely the same world.
func policyFingerprint(pol *core.Policy) [sha256.Size]byte {
	if pol == nil {
		return sha256.Sum256(nil)
	}
	d := newDigester()
	n := pol.N()
	d.varint(int64(n))
	d.flag(pol.Tier1ShortestPath())
	d.flag(pol.PreferHighNextHop())
	g := pol.Graph()
	for i := 0; i < n; i++ {
		d.varint(int64(g.ASN(i).Uint32()))
		d.flag(pol.IsTier1(i))
		d.adjacency(pol.Providers(i))
		d.adjacency(pol.Customers(i))
		d.adjacency(pol.Peers(i))
		d.spill()
	}
	var out [sha256.Size]byte
	d.sum(out[:0])
	return out
}

// adjacency hashes a neighbor list, length first.
func (d *digester) adjacency(adj []int32) {
	d.varint(int64(len(adj)))
	for _, v := range adj {
		d.varint(int64(v))
	}
}

// blockedFingerprint hashes an origin-validation deployment set by
// content (member indices), with a distinct value for "no deployment".
func blockedFingerprint(s *asn.IndexSet) [sha256.Size]byte {
	if s == nil {
		return sha256.Sum256(nil)
	}
	members := s.Members(nil)
	b := make([]byte, 0, (1+len(members))*binary.MaxVarintLen32)
	b = binary.AppendVarint(b, int64(s.Len()))
	for _, i := range members {
		b = binary.AppendVarint(b, int64(i))
	}
	return sha256.Sum256(b)
}
