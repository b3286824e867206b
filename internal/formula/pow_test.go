package formula

import (
	"math"
	"math/rand"
	"testing"
)

// checkPowers fails t unless pow15and35(p) equals math.Pow(p, 1.5) and
// math.Pow(p, 3.5) bit for bit.
func checkPowers(t *testing.T, p float64) {
	t.Helper()
	p15, p35 := pow15and35(p)
	if want := math.Pow(p, 1.5); math.Float64bits(p15) != math.Float64bits(want) {
		t.Fatalf("p=%v (%#016x): p^1.5 = %v, math.Pow gives %v", p, math.Float64bits(p), p15, want)
	}
	if want := math.Pow(p, 3.5); math.Float64bits(p35) != math.Float64bits(want) {
		t.Fatalf("p=%v (%#016x): p^3.5 = %v, math.Pow gives %v", p, math.Float64bits(p), p35, want)
	}
}

// TestPowersMatchMathPow pins PFTK-simplified's power helper to
// math.Pow on the edges of the float64 range and a seeded sweep of
// finite positive bit patterns. It fails if a Go release changes the
// steps math.Pow takes, which would otherwise shift every output
// digest computed with PFTK-simplified.
func TestPowersMatchMathPow(t *testing.T) {
	ps := []float64{
		math.SmallestNonzeroFloat64,
		0x1p-1022, // smallest normal
		math.Nextafter(0x1p-1022, 0),
		math.MaxFloat64,
		0.1, 0.5, 0.75, 1.0 / 3, 2.5, 1e-300, 1e300,
	}
	for e := -1074; e <= 1023; e++ {
		ps = append(ps, math.Ldexp(1, e))
	}
	lo, hi := 1.0, 1.0
	for i := 0; i < 8; i++ {
		ps = append(ps, lo, hi)
		lo, hi = math.Nextafter(lo, 0), math.Nextafter(hi, 2)
	}
	for _, p := range ps {
		checkPowers(t, p)
	}

	rng := rand.New(rand.NewSource(1))
	n := 200000
	if testing.Short() {
		n = 20000
	}
	for i := 0; i < n; i++ {
		checkPowers(t, rng.Float64()+math.SmallestNonzeroFloat64) // (0, 1)
		p := math.Float64frombits(rng.Uint64() &^ (1 << 63))
		if p == 0 || math.IsInf(p, 0) || math.IsNaN(p) {
			continue
		}
		checkPowers(t, p)
	}
}

// FuzzPowersMatchMathPow searches finite positive bit patterns for an
// input where the power helper and math.Pow disagree.
func FuzzPowersMatchMathPow(f *testing.F) {
	for _, p := range []float64{math.SmallestNonzeroFloat64, 0x1p-1022, 0.1, 0.5, 1, 2, math.MaxFloat64} {
		f.Add(math.Float64bits(p))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		p := math.Float64frombits(bits &^ (1 << 63))
		if p == 0 || math.IsInf(p, 0) || math.IsNaN(p) {
			return
		}
		checkPowers(t, p)
	})
}
