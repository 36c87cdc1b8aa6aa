// Package rpki implements the Resource Public Key Infrastructure substrate
// the paper's prevention mechanisms consume: Route Origin Authorizations
// (ROAs) held in a prefix-indexed store with RFC 6811 origin validation,
// and an Ed25519-based certificate chain (trust anchor → CA → end-entity)
// protecting the ROAs, mirroring RPKI's resource-certificate hierarchy.
package rpki

import (
	"bytes"
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
	"slices"

	"github.com/bgpsim/bgpsim/internal/asn"
	"github.com/bgpsim/bgpsim/internal/prefix"
)

// Validity is the RFC 6811 route-origin validation outcome.
type Validity int8

const (
	// NotFound means no ROA covers the announced prefix; routers
	// traditionally accept such routes (deployment is incremental).
	NotFound Validity = iota
	// Valid means a covering ROA authorizes the announcing origin.
	Valid
	// Invalid means covering ROAs exist but none authorizes the origin —
	// the signature of an origin hijack.
	Invalid
)

// String returns the validity name.
func (v Validity) String() string {
	switch v {
	case NotFound:
		return "not-found"
	case Valid:
		return "valid"
	case Invalid:
		return "invalid"
	default:
		return fmt.Sprintf("Validity(%d)", int8(v))
	}
}

// OriginValidator is the oracle interface both RPKI and ROVER provide to
// filters and detectors. Validate must be safe for concurrent calls once
// loading ends: a collector's sessions call it from one goroutine each,
// with no lock of their own around it.
type OriginValidator interface {
	Validate(p prefix.Prefix, origin asn.ASN) Validity
}

// ROA is one Route Origin Authorization: origin may announce p and any
// more-specific prefix up to MaxLength.
type ROA struct {
	Prefix    prefix.Prefix
	MaxLength uint8
	Origin    asn.ASN
}

// Validate checks the ROA's internal consistency.
func (r ROA) Validate() error {
	if r.MaxLength < r.Prefix.Len || r.MaxLength > 32 {
		return fmt.Errorf("roa %v: max length %d out of [%d, 32]", r.Prefix, r.MaxLength, r.Prefix.Len)
	}
	return nil
}

// covers reports whether the ROA makes (p, origin) Valid.
func (r ROA) covers(p prefix.Prefix, origin asn.ASN) bool {
	return r.Origin == origin && r.Prefix.Covers(p) && p.Len <= r.MaxLength
}

// Store is an in-memory ROA database with RFC 6811 validation semantics.
// It indexes ROAs by exact prefix and keeps, per /16, a mask of the
// lengths at which a ROA covers that /16 or lies inside it. A lookup
// probes the index once per marked length up to the announced one, so a
// /24 costs a hash probe or two, not 24 dependent pointer loads, and a
// /16 that no ROA touches costs none. The zero value is empty and ready
// to use. Validate only reads, so any number of goroutines may call it
// at once, provided none calls Add meanwhile.
type Store struct {
	roas map[uint64][]ROA // by roaKey
	by16 *[1 << 16]uint64 // [addr>>16] bit l: a ROA of length l covers or lies in that /16
	n    int
}

var _ OriginValidator = (*Store)(nil)

// roaKey is the index key of the prefix addr/l, host bits masked off.
func roaKey(addr uint32, l uint8) uint64 {
	return uint64(addr&prefix.Mask(l))<<8 | uint64(l)
}

// Add inserts a ROA. A ROA of length l < 16 marks 2^(16-l) summary
// entries; any other marks one.
func (s *Store) Add(r ROA) error {
	if err := r.Validate(); err != nil {
		return err
	}
	l := r.Prefix.Len
	k := roaKey(r.Prefix.Addr, l)
	if slices.Contains(s.roas[k], r) {
		return nil // idempotent
	}
	if s.roas == nil {
		s.roas, s.by16 = make(map[uint64][]ROA), new([1 << 16]uint64)
	}
	s.roas[k] = append(s.roas[k], r)
	first, span := r.Prefix.Addr&prefix.Mask(l)>>16, uint32(1)
	if l < 16 {
		span = 1 << (16 - l)
	}
	marks := s.by16[first : first+span]
	for i := range marks {
		marks[i] |= 1 << l
	}
	s.n++
	return nil
}

// Len returns the number of stored ROAs.
func (s *Store) Len() int { return s.n }

// covering returns the lengths at which a ROA may cover p: bit l set
// means the index may hold ROAs at p's /l. A bit up to /16 is a ROA that
// covers p's /16, so its probe always hits.
func (s *Store) covering(p prefix.Prefix) uint64 {
	if s.by16 == nil {
		return 0
	}
	return s.by16[p.Addr>>16] & (2<<p.Len - 1)
}

// Validate classifies an announcement per RFC 6811: Valid if any covering
// ROA authorizes the origin with sufficient MaxLength, Invalid if covering
// ROAs exist but none matches, NotFound if the prefix is entirely
// uncovered. It probes the most specific length first: that ROA is the
// one that most often authorizes an announcement.
func (s *Store) Validate(p prefix.Prefix, origin asn.ASN) Validity {
	res := NotFound
	for lens := s.covering(p); lens != 0; {
		l := uint8(63 - bits.LeadingZeros64(lens))
		lens &^= 1 << l
		for _, r := range s.roas[roaKey(p.Addr, l)] {
			if r.covers(p, origin) {
				return Valid
			}
			res = Invalid
		}
	}
	return res
}

// AuthorizedOrigins returns the set of origins some covering ROA
// authorizes for p (useful for detector comparison data).
func (s *Store) AuthorizedOrigins(p prefix.Prefix) asn.Set {
	out := asn.NewSet()
	for lens := s.covering(p); lens != 0; lens &= lens - 1 {
		for _, r := range s.roas[roaKey(p.Addr, uint8(bits.TrailingZeros64(lens)))] {
			if r.Prefix.Covers(p) && p.Len <= r.MaxLength {
				out.Add(r.Origin)
			}
		}
	}
	return out
}

// --- Certificate chain -----------------------------------------------------

// Certificate is an RPKI-style resource certificate: a public key bound to
// a set of address resources, signed by its issuer.
type Certificate struct {
	Subject   string
	Resources []prefix.Prefix
	PublicKey ed25519.PublicKey
	// Signature is by the issuer over the certificate's canonical bytes
	// (trust anchors are self-signed).
	Signature []byte
}

// signedBytes is the canonical serialization covered by the signature.
func (c *Certificate) signedBytes() []byte {
	var buf bytes.Buffer
	writeString(&buf, c.Subject)
	binary.Write(&buf, binary.BigEndian, uint32(len(c.Resources))) //nolint:errcheck // bytes.Buffer cannot fail
	for _, p := range c.Resources {
		binary.Write(&buf, binary.BigEndian, p.Addr) //nolint:errcheck
		buf.WriteByte(p.Len)
	}
	buf.Write(c.PublicKey)
	return buf.Bytes()
}

func writeString(w io.Writer, s string) {
	var lenBuf [4]byte
	binary.BigEndian.PutUint32(lenBuf[:], uint32(len(s)))
	w.Write(lenBuf[:]) //nolint:errcheck
	io.WriteString(w, s)
}

// holdsResources reports whether every prefix in sub is covered by some
// prefix in super — the RPKI resource-containment rule.
func holdsResources(super, sub []prefix.Prefix) bool {
	for _, s := range sub {
		ok := false
		for _, p := range super {
			if p.Covers(s) {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// Authority is a certificate authority: a certificate plus its private
// key, able to issue subordinate certificates and sign ROAs.
type Authority struct {
	Cert *Certificate
	priv ed25519.PrivateKey
}

// NewTrustAnchor creates a self-signed root authority holding the given
// resources. Key material is derived deterministically from the seed so
// simulations are reproducible.
func NewTrustAnchor(subject string, resources []prefix.Prefix, seed int64) (*Authority, error) {
	pub, priv := keyFromSeed(subject, seed)
	cert := &Certificate{Subject: subject, Resources: resources, PublicKey: pub}
	cert.Signature = ed25519.Sign(priv, cert.signedBytes())
	return &Authority{Cert: cert, priv: priv}, nil
}

// Issue creates a subordinate authority whose resources must be contained
// in the issuer's.
func (a *Authority) Issue(subject string, resources []prefix.Prefix, seed int64) (*Authority, error) {
	if !holdsResources(a.Cert.Resources, resources) {
		return nil, fmt.Errorf("issue %q: resources exceed issuer %q", subject, a.Cert.Subject)
	}
	pub, priv := keyFromSeed(subject, seed)
	cert := &Certificate{Subject: subject, Resources: resources, PublicKey: pub}
	cert.Signature = ed25519.Sign(a.priv, cert.signedBytes())
	return &Authority{Cert: cert, priv: priv}, nil
}

// SignedROA is a ROA plus the authority signature over it.
type SignedROA struct {
	ROA       ROA
	Signature []byte
}

func roaBytes(r ROA) []byte {
	var buf [13]byte
	binary.BigEndian.PutUint32(buf[0:4], r.Prefix.Addr)
	buf[4] = r.Prefix.Len
	buf[5] = r.MaxLength
	binary.BigEndian.PutUint32(buf[6:10], r.Origin.Uint32())
	return buf[:10]
}

// SignROA signs a ROA; the ROA prefix must be within the authority's
// resources.
func (a *Authority) SignROA(r ROA) (SignedROA, error) {
	if err := r.Validate(); err != nil {
		return SignedROA{}, err
	}
	if !holdsResources(a.Cert.Resources, []prefix.Prefix{r.Prefix}) {
		return SignedROA{}, fmt.Errorf("sign roa %v: outside authority %q resources", r.Prefix, a.Cert.Subject)
	}
	return SignedROA{ROA: r, Signature: ed25519.Sign(a.priv, roaBytes(r))}, nil
}

// VerifyChain validates a certificate chain ordered trust-anchor-first:
// each certificate must be signed by its predecessor and hold a subset of
// its resources; the anchor must be self-signed and match the pinned
// anchor certificate.
func VerifyChain(anchor *Certificate, chain []*Certificate) error {
	if len(chain) == 0 {
		return fmt.Errorf("verify chain: empty")
	}
	first := chain[0]
	if !bytes.Equal(first.PublicKey, anchor.PublicKey) || first.Subject != anchor.Subject {
		return fmt.Errorf("verify chain: first certificate is not the pinned trust anchor")
	}
	if !ed25519.Verify(first.PublicKey, first.signedBytes(), first.Signature) {
		return fmt.Errorf("verify chain: trust anchor self-signature invalid")
	}
	for i := 1; i < len(chain); i++ {
		parent, child := chain[i-1], chain[i]
		if !ed25519.Verify(parent.PublicKey, child.signedBytes(), child.Signature) {
			return fmt.Errorf("verify chain: %q not signed by %q", child.Subject, parent.Subject)
		}
		if !holdsResources(parent.Resources, child.Resources) {
			return fmt.Errorf("verify chain: %q resources exceed issuer %q", child.Subject, parent.Subject)
		}
	}
	return nil
}

// VerifyROA checks a signed ROA against the end-entity certificate of a
// verified chain: signature valid and prefix within the certificate's
// resources.
func VerifyROA(ee *Certificate, sr SignedROA) error {
	if !ed25519.Verify(ee.PublicKey, roaBytes(sr.ROA), sr.Signature) {
		return fmt.Errorf("verify roa %v: bad signature", sr.ROA.Prefix)
	}
	if !holdsResources(ee.Resources, []prefix.Prefix{sr.ROA.Prefix}) {
		return fmt.Errorf("verify roa %v: outside certificate resources", sr.ROA.Prefix)
	}
	return nil
}

// keyFromSeed derives a deterministic Ed25519 keypair from a subject+seed.
func keyFromSeed(subject string, seed int64) (ed25519.PublicKey, ed25519.PrivateKey) {
	h := sha256.New()
	io.WriteString(h, subject)               //nolint:errcheck
	binary.Write(h, binary.BigEndian, seed)  //nolint:errcheck
	io.WriteString(h, "bgpsim-rpki-keyseed") //nolint:errcheck
	priv := ed25519.NewKeyFromSeed(h.Sum(nil))
	return priv.Public().(ed25519.PublicKey), priv
}
