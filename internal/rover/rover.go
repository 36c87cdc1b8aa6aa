// Package rover implements ROVER — Route Origin Verification using DNS —
// the paper authors' own origin-publication system: route origins are
// published as records in the reverse DNS under a CIDR naming convention
// (draft-gersch-dnsop-revdns-cidr) and protected by DNSSEC. This package
// provides the naming convention, a signed zone tree with DS-style
// delegation (DNSSEC-lite over Ed25519), and a resolver that verifies the
// chain of trust on every lookup. The resulting store satisfies
// rpki.OriginValidator, so filters and detectors can consume either
// substrate interchangeably.
package rover

import (
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"strconv"
	"strings"

	"github.com/bgpsim/bgpsim/internal/asn"
	"github.com/bgpsim/bgpsim/internal/prefix"
	"github.com/bgpsim/bgpsim/internal/rpki"
)

// ReverseName maps a CIDR block to its reverse-DNS owner name following
// the draft-gersch-dnsop-revdns-cidr convention: the network octets in
// reverse order under in-addr.arpa, with an "m" (mask) label encoding the
// prefix length when it does not fall on an octet boundary.
//
//	129.82.0.0/16   → 82.129.in-addr.arpa
//	10.0.0.0/8      → 10.in-addr.arpa
//	129.82.64.0/18  → m18.64.82.129.in-addr.arpa
func ReverseName(p prefix.Prefix) string {
	octets := []byte{
		byte(p.Addr >> 24), byte(p.Addr >> 16), byte(p.Addr >> 8), byte(p.Addr),
	}
	nOct := int(p.Len+7) / 8
	var labels []string
	if p.Len%8 != 0 {
		labels = append(labels, "m"+strconv.Itoa(int(p.Len)))
	}
	for i := nOct - 1; i >= 0; i-- {
		labels = append([]string{strconv.Itoa(int(octets[i]))}, labels...)
	}
	// labels currently reversed network octets with the m-label adjacent
	// to the most specific octet; assemble most-specific-first.
	reverse(labels)
	return strings.Join(append(labels, "in-addr", "arpa"), ".")
}

func reverse(s []string) {
	for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
		s[i], s[j] = s[j], s[i]
	}
}

// ParseReverseName inverts ReverseName.
func ParseReverseName(name string) (prefix.Prefix, error) {
	labels := strings.Split(name, ".")
	if len(labels) < 3 || labels[len(labels)-1] != "arpa" || labels[len(labels)-2] != "in-addr" {
		return prefix.Prefix{}, fmt.Errorf("reverse name %q: not under in-addr.arpa", name)
	}
	labels = labels[:len(labels)-2]
	var maskLen = -1
	if len(labels) > 0 && strings.HasPrefix(labels[0], "m") {
		v, err := strconv.Atoi(labels[0][1:])
		if err != nil || v < 1 || v > 32 {
			return prefix.Prefix{}, fmt.Errorf("reverse name %q: bad mask label", name)
		}
		maskLen = v
		labels = labels[1:]
	}
	if len(labels) == 0 || len(labels) > 4 {
		return prefix.Prefix{}, fmt.Errorf("reverse name %q: wrong octet count", name)
	}
	var addr uint32
	for i := len(labels) - 1; i >= 0; i-- {
		v, err := strconv.Atoi(labels[i])
		if err != nil || v < 0 || v > 255 {
			return prefix.Prefix{}, fmt.Errorf("reverse name %q: bad octet %q", name, labels[i])
		}
		addr = addr<<8 | uint32(v)
	}
	addr <<= uint(8 * (4 - len(labels)))
	length := uint8(8 * len(labels))
	if maskLen >= 0 {
		if maskLen > int(length) || maskLen <= int(length)-8 {
			return prefix.Prefix{}, fmt.Errorf("reverse name %q: mask %d inconsistent with %d octets", name, maskLen, len(labels))
		}
		length = uint8(maskLen)
	}
	p := prefix.New(addr, length)
	if p.Addr != addr {
		return prefix.Prefix{}, fmt.Errorf("reverse name %q: host bits set", name)
	}
	return p, nil
}

// SRO is a Secure Route Origin record: the reverse-DNS record type ROVER
// publishes ("RLOCK"-guarded origin data in the paper's drafts).
type SRO struct {
	Prefix prefix.Prefix
	Origin asn.ASN
}

func sroBytes(r SRO) []byte {
	var b [9]byte
	binary.BigEndian.PutUint32(b[0:4], r.Prefix.Addr)
	b[4] = r.Prefix.Len
	binary.BigEndian.PutUint32(b[5:9], r.Origin.Uint32())
	return b[:]
}

// Zone is one signed reverse-DNS zone: an apex name, Ed25519 zone key,
// SRO record sets, and (for non-leaf zones) signed DS-style delegations to
// child zones.
type Zone struct {
	Apex string

	pub  ed25519.PublicKey
	priv ed25519.PrivateKey

	records map[string][]SignedSRO // owner name → signed records
	// children maps child apex → DS record (hash of child key, signed by
	// this zone).
	children map[string]*DS
	zones    map[string]*Zone
}

// SignedSRO is an SRO with its RRSIG-equivalent.
type SignedSRO struct {
	Record    SRO
	Signature []byte
}

// DS is the delegation-signer record: the parent's commitment to the
// child's zone key.
type DS struct {
	Child     string
	KeyDigest [32]byte
	Signature []byte // by the parent zone key over (child, digest)
}

func dsBytes(child string, digest [32]byte) []byte {
	out := make([]byte, 0, len(child)+32)
	out = append(out, child...)
	out = append(out, digest[:]...)
	return out
}

// NewZone creates a zone with a deterministic key derived from apex+seed.
func NewZone(apex string, seed int64) *Zone {
	h := sha256.New()
	io.WriteString(h, apex)                   //nolint:errcheck
	binary.Write(h, binary.BigEndian, seed)   //nolint:errcheck
	io.WriteString(h, "bgpsim-rover-keyseed") //nolint:errcheck
	priv := ed25519.NewKeyFromSeed(h.Sum(nil))
	return &Zone{
		Apex:     apex,
		pub:      priv.Public().(ed25519.PublicKey),
		priv:     priv,
		records:  make(map[string][]SignedSRO),
		children: make(map[string]*DS),
		zones:    make(map[string]*Zone),
	}
}

// Key returns the zone's public key.
func (z *Zone) Key() ed25519.PublicKey { return z.pub }

// Publish signs and stores an SRO for the prefix, at its ReverseName.
func (z *Zone) Publish(r SRO) error {
	name := ReverseName(r.Prefix)
	if !strings.HasSuffix(name, z.Apex) {
		return fmt.Errorf("publish %v: name %q outside zone %q", r.Prefix, name, z.Apex)
	}
	sig := ed25519.Sign(z.priv, sroBytes(r))
	for _, existing := range z.records[name] {
		if existing.Record == r {
			return nil // idempotent
		}
	}
	z.records[name] = append(z.records[name], SignedSRO{Record: r, Signature: sig})
	return nil
}

// Delegate creates (or links) a child zone and installs a signed DS for it.
func (z *Zone) Delegate(childApex string, seed int64) (*Zone, error) {
	if !strings.HasSuffix(childApex, "."+z.Apex) {
		return nil, fmt.Errorf("delegate %q: not under %q", childApex, z.Apex)
	}
	if c, ok := z.zones[childApex]; ok {
		return c, nil
	}
	child := NewZone(childApex, seed)
	digest := sha256.Sum256(child.pub)
	ds := &DS{
		Child:     childApex,
		KeyDigest: digest,
		Signature: ed25519.Sign(z.priv, dsBytes(childApex, digest)),
	}
	z.children[childApex] = ds
	z.zones[childApex] = child
	return child, nil
}

// verifySRO checks a record signature against a zone key.
func verifySRO(pub ed25519.PublicKey, rec SRO, sig []byte) bool {
	return ed25519.Verify(pub, sroBytes(rec), sig)
}

// verifyDS checks a delegation signature against the parent zone key.
func verifyDS(pub ed25519.PublicKey, child string, digest [32]byte, sig []byte) bool {
	return ed25519.Verify(pub, dsBytes(child, digest), sig)
}

// Resolver performs verified lookups against a zone tree, walking
// delegations from a pinned trust anchor and checking every signature —
// the DNSSEC chain of trust that makes ROVER data authoritative.
type Resolver struct {
	anchor *Zone
	// KeyLog counts signature verifications, exposed for tests and for
	// the example programs to show the cost of verification.
	KeyLog int
}

// NewResolver returns a Resolver anchored at the given root zone.
func NewResolver(anchor *Zone) *Resolver {
	return &Resolver{anchor: anchor}
}

// zoneFor walks from the anchor toward the most-specific zone that could
// hold name, verifying each DS delegation.
func (r *Resolver) zoneFor(name string) (*Zone, error) {
	z := r.anchor
	for {
		next := ""
		//bgplint:ignore maporder longest-suffix selection; distinct apexes of equal length cannot both match
		for apex := range z.children {
			if name == apex || strings.HasSuffix(name, "."+apex) {
				if len(apex) > len(next) {
					next = apex
				}
			}
		}
		if next == "" {
			return z, nil
		}
		ds := z.children[next]
		child := z.zones[next]
		r.KeyLog++
		if !ed25519.Verify(z.pub, dsBytes(ds.Child, ds.KeyDigest), ds.Signature) {
			return nil, fmt.Errorf("resolve %q: DS signature for %q invalid", name, next)
		}
		if sha256.Sum256(child.pub) != ds.KeyDigest {
			return nil, fmt.Errorf("resolve %q: child key for %q does not match DS", name, next)
		}
		z = child
	}
}

// LookupOrigins returns the verified authorized origins published at the
// reverse name of p (exact match; callers walk covering prefixes for
// validation, see Store).
func (r *Resolver) LookupOrigins(p prefix.Prefix) (asn.Set, error) {
	name := ReverseName(p)
	z, err := r.zoneFor(name)
	if err != nil {
		return nil, err
	}
	out := asn.NewSet()
	for _, srr := range z.records[name] {
		r.KeyLog++
		if !ed25519.Verify(z.pub, sroBytes(srr.Record), srr.Signature) {
			return nil, fmt.Errorf("lookup %q: record signature invalid", name)
		}
		out.Add(srr.Record.Origin)
	}
	return out, nil
}

// Store adapts a ROVER zone tree into an rpki.OriginValidator: an
// announcement is Valid if any covering published prefix authorizes the
// origin, Invalid if covering publications exist without a match, and
// NotFound when nothing covering is published. Verification failures are
// treated as NotFound (fail-open, as incremental deployment demands) and
// surfaced through Err.
//
// Store does not yet meet rpki.OriginValidator's concurrency contract:
// Validate writes the resolver's KeyLog and lastErr unguarded, so it must
// not serve a collector's sessions until those writes are made safe.
type Store struct {
	resolver *Resolver
	// published mirrors the set of published prefixes so covering lookups
	// do not have to probe all 32 lengths blindly.
	published *prefix.Trie[struct{}]
	lastErr   error
}

var _ rpki.OriginValidator = (*Store)(nil)

// NewStore builds a validating view over the zone tree. The published
// prefix index is built by the caller publishing through it.
func NewStore(anchor *Zone) *Store {
	return &Store{
		resolver:  NewResolver(anchor),
		published: &prefix.Trie[struct{}]{},
	}
}

// NotePublished registers a prefix as published so Validate can find it.
// (Publication itself happens on a Zone.)
func (s *Store) NotePublished(p prefix.Prefix) {
	s.published.Insert(p, struct{}{})
}

// Err returns the last verification error swallowed by Validate.
func (s *Store) Err() error { return s.lastErr }

// Validate implements rpki.OriginValidator over the ROVER data.
func (s *Store) Validate(p prefix.Prefix, origin asn.ASN) rpki.Validity {
	res := rpki.NotFound
	s.published.Covering(p, func(matchLen uint8, _ struct{}) bool {
		cover := prefix.New(p.Addr, matchLen)
		origins, err := s.resolver.LookupOrigins(cover)
		if err != nil {
			s.lastErr = err
			return true
		}
		if len(origins) == 0 {
			return true
		}
		if origins.Contains(origin) {
			res = rpki.Valid
			return false
		}
		res = rpki.Invalid
		return true
	})
	return res
}
