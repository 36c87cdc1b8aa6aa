package rpki

import (
	"runtime"
	"sync"
	"testing"

	"github.com/bgpsim/bgpsim/internal/asn"
	"github.com/bgpsim/bgpsim/internal/prefix"
)

func mp(s string) prefix.Prefix { return prefix.MustParse(s) }

func TestROAValidate(t *testing.T) {
	if err := (ROA{Prefix: mp("10.0.0.0/8"), MaxLength: 24, Origin: 65001}).Validate(); err != nil {
		t.Errorf("valid ROA rejected: %v", err)
	}
	if err := (ROA{Prefix: mp("10.0.0.0/8"), MaxLength: 4, Origin: 65001}).Validate(); err == nil {
		t.Error("maxlen < prefix len accepted")
	}
	if err := (ROA{Prefix: mp("10.0.0.0/8"), MaxLength: 40, Origin: 65001}).Validate(); err == nil {
		t.Error("maxlen > 32 accepted")
	}
}

func TestStoreValidateRFC6811(t *testing.T) {
	var s Store
	if err := s.Add(ROA{Prefix: mp("129.82.0.0/16"), MaxLength: 20, Origin: 12145}); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		p      string
		origin uint32
		want   Validity
	}{
		{"129.82.0.0/16", 12145, Valid},     // exact match
		{"129.82.16.0/20", 12145, Valid},    // within maxlen
		{"129.82.16.0/24", 12145, Invalid},  // too specific (beyond maxlen)
		{"129.82.0.0/16", 666, Invalid},     // wrong origin
		{"129.82.16.0/20", 666, Invalid},    // wrong origin, covered
		{"10.0.0.0/8", 12145, NotFound},     // uncovered space
		{"129.0.0.0/8", 12145, NotFound},    // less specific than any ROA
		{"129.83.0.0/16", 12145, NotFound},  // sibling prefix
		{"129.82.128.0/17", 12145, Valid},   // /17 is still within maxlen 20
		{"129.82.128.0/21", 12145, Invalid}, // covered, beyond maxlen
	}
	for _, c := range cases {
		got := s.Validate(mp(c.p), asn.ASN(c.origin))
		if got != c.want {
			t.Errorf("Validate(%s, AS%d) = %v, want %v", c.p, c.origin, got, c.want)
		}
	}
}

func TestStoreMultipleROAs(t *testing.T) {
	var s Store
	// Multi-origin: two ROAs for the same prefix.
	if err := s.Add(ROA{Prefix: mp("10.0.0.0/8"), MaxLength: 8, Origin: 1}); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(ROA{Prefix: mp("10.0.0.0/8"), MaxLength: 8, Origin: 2}); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 2 {
		t.Errorf("Len = %d", s.Len())
	}
	if got := s.Validate(mp("10.0.0.0/8"), 1); got != Valid {
		t.Errorf("origin 1 = %v", got)
	}
	if got := s.Validate(mp("10.0.0.0/8"), 2); got != Valid {
		t.Errorf("origin 2 = %v", got)
	}
	if got := s.Validate(mp("10.0.0.0/8"), 3); got != Invalid {
		t.Errorf("origin 3 = %v", got)
	}
	// Idempotent re-add.
	if err := s.Add(ROA{Prefix: mp("10.0.0.0/8"), MaxLength: 8, Origin: 1}); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 2 {
		t.Errorf("idempotent Add changed Len = %d", s.Len())
	}
	origins := s.AuthorizedOrigins(mp("10.0.0.0/8"))
	if len(origins) != 2 || !origins.Contains(1) || !origins.Contains(2) {
		t.Errorf("AuthorizedOrigins = %v", origins.Sorted())
	}
}

// TestStoreValidateConcurrent: once loading ends, Validate may be called
// from many goroutines at once — as a collector's sessions do — and each
// call returns the verdict a serial pass gives. Run under -race it also
// shows that Validate writes nothing.
func TestStoreValidateConcurrent(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	var s Store
	for _, r := range []ROA{
		{Prefix: mp("10.0.0.0/8"), MaxLength: 16, Origin: 100},
		{Prefix: mp("10.1.0.0/16"), MaxLength: 24, Origin: 200},
		{Prefix: mp("10.1.0.0/16"), MaxLength: 20, Origin: 300},
		{Prefix: mp("129.82.0.0/16"), MaxLength: 20, Origin: 12145},
	} {
		if err := s.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	type query struct {
		p      prefix.Prefix
		origin asn.ASN
	}
	var queries []query
	var want []Validity
	seen := map[Validity]bool{}
	for _, base := range []string{"10.0.0.0/8", "10.1.0.0/16", "129.82.0.0/16", "192.0.2.0/24"} {
		b := mp(base)
		for l := b.Len; l <= 24; l += 4 {
			for _, origin := range []asn.ASN{100, 200, 300, 12145, 666} {
				q := query{prefix.New(b.Addr|uint32(l)<<8, l), origin}
				v := s.Validate(q.p, q.origin)
				queries, want = append(queries, q), append(want, v)
				seen[v] = true
			}
		}
	}
	if !seen[Valid] || !seen[Invalid] || !seen[NotFound] {
		t.Fatalf("queries reach only %v: the test must cover every verdict", seen)
	}
	const workers, rounds = 8, 50
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for i, q := range queries {
					if got := s.Validate(q.p, q.origin); got != want[i] {
						errs <- q.p.String() + ": concurrent verdict differs from the serial pass"
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestStoreNestedROAs: a customer's more-specific ROA must not invalidate
// the provider's covering announcement and vice versa.
func TestStoreNestedROAs(t *testing.T) {
	var s Store
	if err := s.Add(ROA{Prefix: mp("10.0.0.0/8"), MaxLength: 8, Origin: 100}); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(ROA{Prefix: mp("10.1.0.0/16"), MaxLength: 16, Origin: 200}); err != nil {
		t.Fatal(err)
	}
	if got := s.Validate(mp("10.1.0.0/16"), 200); got != Valid {
		t.Errorf("customer announcement = %v, want valid", got)
	}
	if got := s.Validate(mp("10.0.0.0/8"), 100); got != Valid {
		t.Errorf("provider announcement = %v, want valid", got)
	}
	// Hijacker announcing the /16 with the provider's ASN: the /8 ROA has
	// maxlen 8, so it does not authorize the /16 → Invalid.
	if got := s.Validate(mp("10.1.0.0/16"), 100); got != Invalid {
		t.Errorf("provider-ASN /16 = %v, want invalid", got)
	}
}

func TestCertificateChain(t *testing.T) {
	anchor, err := NewTrustAnchor("root", []prefix.Prefix{mp("0.0.0.0/0")}, 1)
	if err != nil {
		t.Fatal(err)
	}
	rir, err := anchor.Issue("rir-west", []prefix.Prefix{mp("128.0.0.0/2")}, 2)
	if err != nil {
		t.Fatal(err)
	}
	isp, err := rir.Issue("isp-129.82", []prefix.Prefix{mp("129.82.0.0/16")}, 3)
	if err != nil {
		t.Fatal(err)
	}
	chain := []*Certificate{anchor.Cert, rir.Cert, isp.Cert}
	if err := VerifyChain(anchor.Cert, chain); err != nil {
		t.Fatalf("valid chain rejected: %v", err)
	}

	// Resource escalation must be rejected at issue time…
	if _, err := rir.Issue("greedy", []prefix.Prefix{mp("0.0.0.0/0")}, 4); err == nil {
		t.Error("resource escalation accepted at Issue")
	}
	// …and a tampered chain at verify time.
	forged := *isp.Cert
	forged.Resources = []prefix.Prefix{mp("0.0.0.0/0")}
	if err := VerifyChain(anchor.Cert, []*Certificate{anchor.Cert, rir.Cert, &forged}); err == nil {
		t.Error("tampered resources accepted")
	}
	// Wrong order / wrong anchor.
	if err := VerifyChain(anchor.Cert, []*Certificate{rir.Cert, isp.Cert}); err == nil {
		t.Error("chain not starting at anchor accepted")
	}
	if err := VerifyChain(anchor.Cert, nil); err == nil {
		t.Error("empty chain accepted")
	}
	// A certificate signed by the wrong parent.
	other, err := NewTrustAnchor("other-root", []prefix.Prefix{mp("0.0.0.0/0")}, 9)
	if err != nil {
		t.Fatal(err)
	}
	stray, err := other.Issue("stray", []prefix.Prefix{mp("129.82.0.0/16")}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyChain(anchor.Cert, []*Certificate{anchor.Cert, stray.Cert}); err == nil {
		t.Error("certificate from foreign chain accepted")
	}
}

func TestSignedROA(t *testing.T) {
	anchor, err := NewTrustAnchor("root", []prefix.Prefix{mp("0.0.0.0/0")}, 1)
	if err != nil {
		t.Fatal(err)
	}
	isp, err := anchor.Issue("isp", []prefix.Prefix{mp("129.82.0.0/16")}, 2)
	if err != nil {
		t.Fatal(err)
	}
	roa := ROA{Prefix: mp("129.82.0.0/16"), MaxLength: 24, Origin: 12145}
	sr, err := isp.SignROA(roa)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyROA(isp.Cert, sr); err != nil {
		t.Errorf("valid signed ROA rejected: %v", err)
	}
	// Signature over tampered content must fail.
	bad := sr
	bad.ROA.Origin = 666
	if err := VerifyROA(isp.Cert, bad); err == nil {
		t.Error("tampered ROA accepted")
	}
	// Signing outside authority resources must fail.
	if _, err := isp.SignROA(ROA{Prefix: mp("10.0.0.0/8"), MaxLength: 8, Origin: 1}); err == nil {
		t.Error("out-of-resource ROA signed")
	}
	// Invalid ROA must fail at signing.
	if _, err := isp.SignROA(ROA{Prefix: mp("129.82.0.0/16"), MaxLength: 8, Origin: 1}); err == nil {
		t.Error("malformed ROA signed")
	}
}

func TestDeterministicKeys(t *testing.T) {
	a1, err := NewTrustAnchor("root", []prefix.Prefix{mp("0.0.0.0/0")}, 7)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := NewTrustAnchor("root", []prefix.Prefix{mp("0.0.0.0/0")}, 7)
	if err != nil {
		t.Fatal(err)
	}
	if string(a1.Cert.PublicKey) != string(a2.Cert.PublicKey) {
		t.Error("same seed produced different keys")
	}
	a3, err := NewTrustAnchor("root", []prefix.Prefix{mp("0.0.0.0/0")}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if string(a1.Cert.PublicKey) == string(a3.Cert.PublicKey) {
		t.Error("different seeds produced identical keys")
	}
}
