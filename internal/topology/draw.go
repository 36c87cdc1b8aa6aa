package topology

import "slices"

// drawList is a candidate list for degree-weighted draws: node ids in
// ascending order, with a Fenwick tree over their degree+1 weights.
type drawList struct {
	ids  []int
	tree fenwick
}

// newDrawList builds the list over ids (ascending) at their current
// weights, filling the tree in one pass: a position's sum is complete
// once its own weight is in, and is then added to its parent's.
func (s *genState) newDrawList(ids []int) *drawList {
	f := fenwick{sum: make([]int, len(ids)+1)}
	for i, id := range ids {
		w := s.degree[id] + 1
		f.total += w
		j := i + 1
		f.sum[j] += w
		if p := j + j&-j; p < len(f.sum) {
			f.sum[p] += f.sum[j]
		}
	}
	return &drawList{ids: ids, tree: f}
}

// pos returns id's position in the list.
func (l *drawList) pos(id int) (int, bool) {
	return slices.BinarySearch(l.ids, id)
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
