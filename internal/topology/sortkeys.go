package topology

// sortKeys sorts keys ascending, as slices.Sort does, by a least
// significant digit radix sort over bytes. Byte positions where every key
// agrees are skipped: at paper scale, packed links take six scatter
// passes and (ASN, id) words five.
func sortKeys(keys []uint64) {
	if len(keys) < 2 {
		return
	}
	// All eight histograms in one pass, unrolled: a loop over the bytes
	// made the whole sort a third slower on the paper world's links.
	var count [8][256]int
	for _, k := range keys {
		count[0][byte(k)]++
		count[1][byte(k>>8)]++
		count[2][byte(k>>16)]++
		count[3][byte(k>>24)]++
		count[4][byte(k>>32)]++
		count[5][byte(k>>40)]++
		count[6][byte(k>>48)]++
		count[7][byte(k>>56)]++
	}
	first := keys[0]
	src, dst := keys, make([]uint64, len(keys))
	for b := range count {
		c := &count[b]
		if c[byte(first>>(8*b))] == len(keys) {
			continue // every key agrees on this byte
		}
		sum := 0
		for d, n := range c {
			c[d] = sum
			sum += n
		}
		shift := 8 * b
		for _, k := range src {
			d := byte(k >> shift)
			dst[c[d]] = k
			c[d]++
		}
		src, dst = dst, src
	}
	if &src[0] != &keys[0] {
		copy(keys, src)
	}
}
