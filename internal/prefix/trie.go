package prefix

// Trie is a binary radix trie mapping prefixes to arbitrary values. It
// supports the three queries sub-prefix classification and ROVER need:
//
//   - Exact:       the value stored at precisely this prefix
//   - LongestMatch: the most-specific stored prefix covering a query
//   - Covering:    every stored prefix that covers a query (walk to root)
//
// The zero value is an empty trie ready to use.
type Trie[V any] struct {
	root *trieNode[V]
}

type trieNode[V any] struct {
	child [2]*trieNode[V]
	value V
	set   bool
}

// Insert stores value at p, replacing any existing value.
func (t *Trie[V]) Insert(p Prefix, value V) {
	if t.root == nil {
		t.root = &trieNode[V]{}
	}
	n := t.root
	for i := uint8(0); i < p.Len; i++ {
		b := p.Bit(i)
		if n.child[b] == nil {
			n.child[b] = &trieNode[V]{}
		}
		n = n.child[b]
	}
	n.value, n.set = value, true
}

// Exact returns the value stored at exactly p.
func (t *Trie[V]) Exact(p Prefix) (V, bool) {
	n := t.root
	for i := uint8(0); n != nil && i < p.Len; i++ {
		n = n.child[p.Bit(i)]
	}
	if n == nil || !n.set {
		var zero V
		return zero, false
	}
	return n.value, true
}

// LongestMatch returns the value and length of the most-specific stored
// prefix that covers p (including p itself).
func (t *Trie[V]) LongestMatch(p Prefix) (value V, matchLen uint8, ok bool) {
	n := t.root
	for i := uint8(0); n != nil; i++ {
		if n.set {
			value, matchLen, ok = n.value, i, true
		}
		if i >= p.Len {
			break
		}
		n = n.child[p.Bit(i)]
	}
	return value, matchLen, ok
}

// Covering calls fn for every stored prefix covering p, from least to most
// specific. Iteration stops early if fn returns false.
func (t *Trie[V]) Covering(p Prefix, fn func(matchLen uint8, value V) bool) {
	n := t.root
	for i := uint8(0); n != nil; i++ {
		if n.set && !fn(i, n.value) {
			return
		}
		if i >= p.Len {
			return
		}
		n = n.child[p.Bit(i)]
	}
}
