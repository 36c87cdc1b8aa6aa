// Package hotalloc_b exercises hotalloc's arena-drop rule: inside a
// //bgplint:hotpath function, appending nil or an empty literal to a
// slice of slices overwrites the inner buffer retained at that position,
// so it must be flagged wherever it appears; re-slicing within capacity,
// appending a live buffer, and nil appended to anything that is not a
// slice of slices must not.
package hotalloc_b

type solver struct {
	buckets [][]int32
	errs    []error
	ptrs    []*int
}

// Flagged: the growBuckets shape, in a loop and in straight-line code.
//
//bgplint:hotpath fixture kernel
func (s *solver) growBad(size int) {
	for len(s.buckets) < size {
		s.buckets = append(s.buckets, nil) // want "append of an empty slice to a slice of slices drops the inner buffer"
	}
	s.buckets = append(s.buckets, []int32{})             // want "append of an empty slice to a slice of slices"
	s.buckets = append(s.buckets, []int32{1}, (nil))     // want "append of an empty slice to a slice of slices"
	s.buckets = append(s.buckets, nil, make([]int32, 4)) // want "append of an empty slice to a slice of slices"
}

// Not flagged: re-slice within capacity, keep each inner arena.
//
//bgplint:hotpath fixture kernel
func (s *solver) growGood(size int, spare [][]int32, buf []int32) {
	for i := len(s.buckets); i < size && i < cap(s.buckets); i++ {
		s.buckets = s.buckets[:i+1]
		s.buckets[i] = s.buckets[i][:0]
	}
	s.buckets = append(s.buckets, buf)      // a live buffer, not an empty one
	s.buckets = append(s.buckets, spare...) // spreads existing inner slices
	s.errs = append(s.errs, nil)            // not a slice of slices
	s.ptrs = append(s.ptrs, nil)
}

// Not flagged: no hotpath annotation, no budget.
func (s *solver) growCold(size int) {
	for len(s.buckets) < size {
		s.buckets = append(s.buckets, nil)
	}
}

// Not flagged: suppressed with a reason.
//
//bgplint:hotpath fixture kernel
func (s *solver) growSanctioned() {
	//bgplint:ignore hotalloc fixture: first growth of a fresh array, nothing retained yet
	s.buckets = append(s.buckets, nil)
}
