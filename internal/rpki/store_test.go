package rpki

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"

	"github.com/bgpsim/bgpsim/internal/asn"
	"github.com/bgpsim/bgpsim/internal/prefix"
)

// fuzzOrigins are the origins a fuzz input picks from by index: few
// enough that ROAs share origins and queries hit authorized ones.
var fuzzOrigins = []asn.ASN{12145, 666, 100, 200}

const (
	fuzzROASize   = 8 // mode, addr×4, len, max-length delta, origin
	fuzzQuerySize = 7 // mode, addr×4, len, origin
)

// fuzzAddr decodes mode and four address bytes. An odd mode places the
// address inside an earlier ROA's prefix (the one mode>>1 picks), so
// inputs reach nested ROAs and covered queries; an even mode takes the
// address as given, which mostly lands in uncovered /16s.
func fuzzAddr(b []byte, roas []ROA) uint32 {
	addr := binary.BigEndian.Uint32(b[1:5])
	if b[0]&1 == 1 && len(roas) > 0 {
		in := roas[int(b[0]>>1)%len(roas)].Prefix
		addr = in.Addr | addr&^prefix.Mask(in.Len)
	}
	return addr
}

// decodeFuzzROAs reads every whole ROA record of data. Lengths run over
// 0–32 and max lengths over [len, 32].
func decodeFuzzROAs(data []byte) []ROA {
	var roas []ROA
	for ; len(data) >= fuzzROASize; data = data[fuzzROASize:] {
		l := data[5] % 33
		roas = append(roas, ROA{
			Prefix:    prefix.New(fuzzAddr(data, roas), l),
			MaxLength: l + data[6]%(33-l),
			Origin:    fuzzOrigins[int(data[7])%len(fuzzOrigins)],
		})
	}
	return roas
}

func encodeFuzzROA(r ROA) []byte {
	b := binary.BigEndian.AppendUint32([]byte{0}, r.Prefix.Addr)
	return append(b, r.Prefix.Len, r.MaxLength-r.Prefix.Len, byte(slices.Index(fuzzOrigins, r.Origin)))
}

func encodeFuzzQuery(p prefix.Prefix, origin asn.ASN) []byte {
	b := binary.BigEndian.AppendUint32([]byte{0}, p.Addr)
	return append(b, p.Len, byte(slices.Index(fuzzOrigins, origin)))
}

// scanValidate is RFC 6811 §2 by definition: a linear scan over every
// ROA. A ROA covers p when its prefix covers p, whatever its max length.
func scanValidate(roas []ROA, p prefix.Prefix, origin asn.ASN) Validity {
	res := NotFound
	for _, r := range roas {
		if r.Prefix.Covers(p) {
			if r.Origin == origin && p.Len <= r.MaxLength {
				return Valid
			}
			res = Invalid
		}
	}
	return res
}

// FuzzStoreValidate holds Validate and AuthorizedOrigins to a linear
// scan over every ROA added, on ROA and query lengths 0–32, duplicate
// Adds, several ROAs on one prefix, max lengths below the query length
// and queries in uncovered /16s.
func FuzzStoreValidate(f *testing.F) {
	// TestStoreValidateRFC6811's ROA and queries.
	var queries []byte
	for _, c := range []struct {
		p      string
		origin asn.ASN
	}{
		{"129.82.0.0/16", 12145}, {"129.82.16.0/20", 12145}, {"129.82.16.0/24", 12145},
		{"129.82.0.0/16", 666}, {"129.82.16.0/20", 666}, {"10.0.0.0/8", 12145},
		{"129.0.0.0/8", 12145}, {"129.83.0.0/16", 12145}, {"129.82.128.0/17", 12145},
		{"129.82.128.0/21", 12145},
	} {
		queries = append(queries, encodeFuzzQuery(mp(c.p), c.origin)...)
	}
	f.Add(encodeFuzzROA(ROA{Prefix: mp("129.82.0.0/16"), MaxLength: 20, Origin: 12145}), queries)
	// TestStoreNestedROAs and TestStoreMultipleROAs, plus /0 and /32.
	var nested []byte
	for _, r := range []ROA{
		{Prefix: mp("10.0.0.0/8"), MaxLength: 8, Origin: 100},
		{Prefix: mp("10.1.0.0/16"), MaxLength: 16, Origin: 200},
		{Prefix: mp("10.0.0.0/8"), MaxLength: 8, Origin: 200},
		{Prefix: mp("10.0.0.0/8"), MaxLength: 8, Origin: 100},
		{Prefix: mp("0.0.0.0/0"), MaxLength: 0, Origin: 666},
		{Prefix: mp("10.1.2.3/32"), MaxLength: 32, Origin: 12145},
	} {
		nested = append(nested, encodeFuzzROA(r)...)
	}
	queries = nil
	for _, q := range []string{"10.1.0.0/16", "10.0.0.0/8", "10.1.2.3/32", "0.0.0.0/0", "192.0.2.0/24"} {
		for _, origin := range fuzzOrigins {
			queries = append(queries, encodeFuzzQuery(mp(q), origin)...)
		}
	}
	f.Add(nested, queries)

	f.Fuzz(func(t *testing.T, roaBytes, queryBytes []byte) {
		roas := decodeFuzzROAs(roaBytes)
		var s Store
		var distinct []ROA
		for i, r := range roas {
			if err := s.Add(r); err != nil {
				t.Fatalf("Add(%+v): %v", r, err)
			}
			if i%3 == 0 {
				if err := s.Add(r); err != nil { // a duplicate Add
					t.Fatalf("second Add(%+v): %v", r, err)
				}
			}
			if !slices.Contains(distinct, r) {
				distinct = append(distinct, r)
			}
		}
		if s.Len() != len(distinct) {
			t.Fatalf("Len = %d after adding %d distinct ROAs", s.Len(), len(distinct))
		}
		for ; len(queryBytes) >= fuzzQuerySize; queryBytes = queryBytes[fuzzQuerySize:] {
			p := prefix.New(fuzzAddr(queryBytes, roas), queryBytes[5]%33)
			origin := fuzzOrigins[int(queryBytes[6])%len(fuzzOrigins)]
			if got, want := s.Validate(p, origin), scanValidate(distinct, p, origin); got != want {
				t.Fatalf("Validate(%v, %v) = %v, a scan over %v says %v", p, origin, got, distinct, want)
			}
			var want []asn.ASN
			for _, o := range fuzzOrigins {
				if scanValidate(distinct, p, o) == Valid {
					want = append(want, o)
				}
			}
			slices.Sort(want)
			if got := s.AuthorizedOrigins(p).Sorted(); !slices.Equal(got, want) {
				t.Fatalf("AuthorizedOrigins(%v) = %v, a scan over %v says %v", p, got, distinct, want)
			}
		}
	})
}

// TestStoreValidateAllocFree: a lookup allocates nothing, covered or
// not, so the collector's per-announcement check costs no garbage.
func TestStoreValidateAllocFree(t *testing.T) {
	var s Store
	for _, r := range []ROA{
		{Prefix: mp("10.0.0.0/8"), MaxLength: 16, Origin: 100},
		{Prefix: mp("10.1.0.0/16"), MaxLength: 24, Origin: 200},
		{Prefix: mp("10.1.2.0/24"), MaxLength: 24, Origin: 300},
	} {
		if err := s.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range []string{"10.1.2.0/24", "10.1.3.0/24", "192.0.2.0/24", "10.0.0.0/8"} {
		q := mp(p)
		if allocs := testing.AllocsPerRun(100, func() { s.Validate(q, 300) }); allocs != 0 {
			t.Errorf("Validate(%v) makes %v allocations, want 0", q, allocs)
		}
	}
}

type benchQuery struct {
	p      prefix.Prefix
	origin asn.ASN
}

// firehoseShape is firehose_replay's ROA set: 5,000 origins with four
// consecutive /24 ROAs each from 11.0.0.0, and lookups of those /24s,
// 1% of them with an origin no ROA authorizes.
func firehoseShape(rng *rand.Rand) ([]ROA, []benchQuery) {
	var roas []ROA
	for k := 0; k < 5000; k++ {
		for j := 0; j < 4; j++ {
			p := prefix.New(0x0B000000+uint32(k*4+j)<<8, 24)
			roas = append(roas, ROA{Prefix: p, MaxLength: 24, Origin: asn.ASN(100000 + k)})
		}
	}
	qs := make([]benchQuery, 4096)
	for i := range qs {
		r := roas[rng.Intn(len(roas))]
		qs[i] = benchQuery{r.Prefix, r.Origin}
		if rng.Intn(100) == 0 {
			qs[i].origin = 64512
		}
	}
	return roas, qs
}

// rpkiShape is a ROA set shaped like a published RPKI: 120,000 ROAs in
// 0.0.0.0/1 with lengths /8–/24, 60% of them /24 and the rest spread
// evenly over /8–/23, half of them with a max length drawn from their
// own length to /24. Half the lookups fall inside a ROA's prefix at its
// length or longer, 90% of those with the ROA's origin; the other half
// fall in 128.0.0.0/1, which no ROA covers.
func rpkiShape(rng *rand.Rand) ([]ROA, []benchQuery) {
	roas := make([]ROA, 120000)
	for i := range roas {
		l := uint8(24)
		if rng.Intn(10) >= 6 {
			l = uint8(8 + rng.Intn(16))
		}
		maxLen := l
		if rng.Intn(2) == 0 {
			maxLen += uint8(rng.Intn(25 - int(l)))
		}
		roas[i] = ROA{Prefix: prefix.New(rng.Uint32()>>1, l), MaxLength: maxLen, Origin: asn.ASN(1 + rng.Intn(60000))}
	}
	qs := make([]benchQuery, 4096)
	for i := range qs {
		if i%2 == 1 {
			qs[i] = benchQuery{prefix.New(rng.Uint32()|1<<31, uint8(8+rng.Intn(17))), asn.ASN(1 + rng.Intn(60000))}
			continue
		}
		r := roas[rng.Intn(len(roas))]
		l := r.Prefix.Len + uint8(rng.Intn(25-int(r.Prefix.Len)))
		qs[i] = benchQuery{prefix.New(r.Prefix.Addr|rng.Uint32()&^prefix.Mask(r.Prefix.Len), l), r.Origin}
		if rng.Intn(10) == 0 {
			qs[i].origin = asn.ASN(1 + rng.Intn(60000))
		}
	}
	return roas, qs
}

// BenchmarkStoreValidate times one Validate over two ROA sets generated
// here: firehose_replay's and an RPKI-shaped one (see EXPERIMENTS).
func BenchmarkStoreValidate(b *testing.B) {
	for _, shape := range []struct {
		name string
		gen  func(*rand.Rand) ([]ROA, []benchQuery)
	}{{"firehose", firehoseShape}, {"rpki", rpkiShape}} {
		b.Run(shape.name, func(b *testing.B) {
			roas, qs := shape.gen(rand.New(rand.NewSource(1)))
			var s Store
			for _, r := range roas {
				if err := s.Add(r); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q := qs[i%len(qs)]
				s.Validate(q.p, q.origin)
			}
		})
	}
}
