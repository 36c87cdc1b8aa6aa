package topology

// drawList is a candidate list for degree-weighted draws: node ids in
// ascending order, with a Fenwick tree over their degree+1 weights.
// Every list is a transit layer (consecutive ids from base) or a subset
// of one, so at, indexed by id-base, finds an id's position in O(1). A
// layer's region lists hold disjoint ids and share one at.
type drawList struct {
	ids  []int
	base int
	at   []int32 // at[id-base]: id's position in the list holding it
	tree fenwick
}

// newDrawList builds the list over ids (ascending, each in
// [base, base+len(at))) at their current weights, recording each id's
// position in at. It fills the tree in one pass: a position's sum is
// complete once its own weight is in, and is then added to its parent's.
func (s *genState) newDrawList(ids []int, base int, at []int32) *drawList {
	f := fenwick{sum: make([]int, len(ids)+1)}
	for i, id := range ids {
		at[id-base] = int32(i)
		w := s.degree[id] + 1
		f.total += w
		j := i + 1
		f.sum[j] += w
		if p := j + j&-j; p < len(f.sum) {
			f.sum[p] += f.sum[j]
		}
	}
	return &drawList{ids: ids, base: base, at: at, tree: f}
}

// pos returns id's position in the list. An id outside the layer, or
// held by another list sharing at, is not found.
func (l *drawList) pos(id int) (int, bool) {
	k := id - l.base
	if k < 0 || k >= len(l.at) {
		return 0, false
	}
	i := int(l.at[k])
	return i, i < len(l.ids) && l.ids[i] == id
}

// add raises id's weight by delta; ids not in the list are ignored.
func (l *drawList) add(id, delta int) {
	if i, ok := l.pos(id); ok {
		l.tree.add(i, delta)
	}
}

// fenwick is a binary indexed tree over positive integer weights: point
// updates and prefix searches in O(log n).
type fenwick struct {
	sum   []int // 1-based: sum[i] covers positions (i - i&-i, i]
	total int
}

// add raises the weight at position i by delta.
func (f *fenwick) add(i, delta int) {
	f.total += delta
	for i++; i < len(f.sum); i += i & -i {
		f.sum[i] += delta
	}
}

// search returns the first position whose prefix sum, itself included,
// exceeds r; r must be in [0, total).
func (f *fenwick) search(r int) int {
	i := 0
	step := 1
	for step*2 < len(f.sum) {
		step *= 2
	}
	for ; step > 0; step /= 2 {
		if j := i + step; j < len(f.sum) && f.sum[j] <= r {
			i = j
			r -= f.sum[j]
		}
	}
	return i
}
