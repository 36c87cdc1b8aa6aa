// Package asn provides autonomous-system number types and compact AS sets.
//
// Simulation code addresses ASes by dense integer index (assigned by the
// topology package); ASN values appear only at the edges of the system —
// input parsing, reporting, and origin-authorization records. Keeping the
// two representations distinct avoids an entire class of "index used as
// ASN" bugs.
package asn

import (
	"fmt"
	"math/bits"
	"sort"
	"strconv"
)

// ASN is a BGP autonomous system number (RFC 6793 four-octet form).
type ASN uint32

// String renders the ASN in the conventional "AS<number>" form.
func (a ASN) String() string {
	return "AS" + strconv.FormatUint(uint64(a), 10)
}

// FromUint32 converts a wire-format four-octet AS number to the typed
// form. It is the only sanctioned integer→ASN conversion outside this
// package (enforced by bgplint's asnconv analyzer), so call sites state
// explicitly that the value in hand is an AS number, not a node index.
func FromUint32(v uint32) ASN { return ASN(v) }

// Uint32 returns the wire-format four-octet AS number — the sanctioned
// ASN→integer conversion for encoders and formatters.
func (a ASN) Uint32() uint32 { return uint32(a) }

// Parse parses an ASN from decimal text, with or without an "AS" prefix.
func Parse(s string) (ASN, error) {
	t := s
	if len(t) >= 2 && (t[0] == 'A' || t[0] == 'a') && (t[1] == 'S' || t[1] == 's') {
		t = t[2:]
	}
	v, err := strconv.ParseUint(t, 10, 32)
	if err != nil {
		return 0, fmt.Errorf("parse ASN %q: %w", s, err)
	}
	return ASN(v), nil
}

// Set is a set of ASNs. The zero value is an empty set ready to use for
// reads; use Add (which allocates lazily) for writes.
type Set map[ASN]struct{}

// NewSet returns a Set containing the given members.
func NewSet(members ...ASN) Set {
	s := make(Set, len(members))
	for _, m := range members {
		s[m] = struct{}{}
	}
	return s
}

// Add inserts a into the set.
func (s Set) Add(a ASN) { s[a] = struct{}{} }

// Contains reports whether a is a member.
func (s Set) Contains(a ASN) bool {
	_, ok := s[a]
	return ok
}

// Sorted returns the members in ascending order.
func (s Set) Sorted() []ASN {
	out := make([]ASN, 0, len(s))
	for a := range s { //bgplint:ignore maporder members are sorted immediately below
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// IndexSet is a bitset over dense node indices. It is the workhorse set
// representation inside attack sweeps, where allocation-free membership
// tests dominate the profile.
type IndexSet struct {
	words []uint64
	n     int
}

// NewIndexSet returns an empty IndexSet able to hold indices [0, size).
func NewIndexSet(size int) *IndexSet {
	return &IndexSet{words: make([]uint64, (size+63)/64), n: size}
}

// Len returns the capacity (number of addressable indices).
func (s *IndexSet) Len() int { return s.n }

// Add inserts index i.
func (s *IndexSet) Add(i int) { s.words[i>>6] |= 1 << (uint(i) & 63) }

// Remove deletes index i.
func (s *IndexSet) Remove(i int) { s.words[i>>6] &^= 1 << (uint(i) & 63) }

// Contains reports whether index i is a member.
func (s *IndexSet) Contains(i int) bool {
	return s.words[i>>6]&(1<<(uint(i)&63)) != 0
}

// Clear removes all members, retaining capacity.
func (s *IndexSet) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// Count returns the number of members.
func (s *IndexSet) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Words returns the set's backing words: bit i%64 of word i/64 is index
// i's membership. The caller must not modify them.
func (s *IndexSet) Words() []uint64 { return s.words }

// Members appends all member indices to dst and returns it.
func (s *IndexSet) Members(dst []int) []int {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			dst = append(dst, wi*64+b)
			w &= w - 1
		}
	}
	return dst
}
