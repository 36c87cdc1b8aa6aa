// Package prefix implements IPv4 CIDR prefixes and a binary radix trie
// keyed by prefix. The trie serves the detector's published-prefix set and
// the ROVER reverse-DNS zone: they need exact-match, longest-match and
// covering-entry queries over address space.
package prefix

import (
	"fmt"
	"strconv"
	"strings"
)

// Prefix is an IPv4 CIDR block. Addr holds the network address in host
// byte order with all bits below Len zeroed (enforced by the constructors).
type Prefix struct {
	Addr uint32
	Len  uint8
}

// New returns the prefix addr/length with host bits masked off.
// Lengths greater than 32 are clamped to 32.
func New(addr uint32, length uint8) Prefix {
	if length > 32 {
		length = 32
	}
	return Prefix{Addr: addr & Mask(length), Len: length}
}

// Mask returns the network mask for a prefix length.
func Mask(length uint8) uint32 {
	if length == 0 {
		return 0
	}
	if length >= 32 {
		return ^uint32(0)
	}
	return ^uint32(0) << (32 - length)
}

// Parse parses dotted-quad CIDR text such as "129.82.0.0/16".
func Parse(s string) (Prefix, error) {
	slash := strings.IndexByte(s, '/')
	if slash < 0 {
		return Prefix{}, fmt.Errorf("prefix %q: missing '/'", s)
	}
	addr, err := parseIPv4(s[:slash])
	if err != nil {
		return Prefix{}, fmt.Errorf("prefix %q: %w", s, err)
	}
	length, err := strconv.ParseUint(s[slash+1:], 10, 8)
	if err != nil || length > 32 {
		return Prefix{}, fmt.Errorf("prefix %q: bad length", s)
	}
	p := New(addr, uint8(length))
	if p.Addr != addr {
		return Prefix{}, fmt.Errorf("prefix %q: host bits set", s)
	}
	return p, nil
}

// MustParse is Parse that panics on error; for tests and constants.
func MustParse(s string) Prefix {
	p, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return p
}

func parseIPv4(s string) (uint32, error) {
	var addr uint32
	part := 0
	val := -1
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= '0' && c <= '9':
			if val < 0 {
				val = 0
			}
			val = val*10 + int(c-'0')
			if val > 255 {
				return 0, fmt.Errorf("octet out of range")
			}
		case c == '.':
			if val < 0 || part == 3 {
				return 0, fmt.Errorf("malformed address")
			}
			addr = addr<<8 | uint32(val)
			val = -1
			part++
		default:
			return 0, fmt.Errorf("bad character %q", c)
		}
	}
	if part != 3 || val < 0 {
		return 0, fmt.Errorf("malformed address")
	}
	return addr<<8 | uint32(val), nil
}

// String renders the prefix in CIDR notation.
func (p Prefix) String() string {
	var b strings.Builder
	b.Grow(18)
	for shift := 24; shift >= 0; shift -= 8 {
		b.WriteString(strconv.Itoa(int(p.Addr >> uint(shift) & 0xff)))
		if shift > 0 {
			b.WriteByte('.')
		}
	}
	b.WriteByte('/')
	b.WriteString(strconv.Itoa(int(p.Len)))
	return b.String()
}

// Contains reports whether p covers the single address addr.
func (p Prefix) Contains(addr uint32) bool {
	return addr&Mask(p.Len) == p.Addr
}

// Covers reports whether p covers q entirely (p is q or a supernet of q).
func (p Prefix) Covers(q Prefix) bool {
	return p.Len <= q.Len && q.Addr&Mask(p.Len) == p.Addr
}

// IsSubprefixOf reports whether p is a strictly more-specific prefix of q.
// This is the relation exercised by sub-prefix hijacks: a more-specific
// announcement wins longest-prefix-match forwarding everywhere.
func (p Prefix) IsSubprefixOf(q Prefix) bool {
	return p.Len > q.Len && q.Covers(p)
}

// Overlaps reports whether p and q share any address.
func (p Prefix) Overlaps(q Prefix) bool {
	return p.Covers(q) || q.Covers(p)
}

// Bit returns bit i (0 = most significant) of the prefix address.
func (p Prefix) Bit(i uint8) int {
	return int(p.Addr >> (31 - i) & 1)
}

// Size returns the number of addresses covered by the prefix.
func (p Prefix) Size() uint64 {
	return uint64(1) << (32 - p.Len)
}
