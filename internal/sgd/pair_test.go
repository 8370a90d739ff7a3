package sgd

import (
	"math"
	"testing"

	"cuttlesys/internal/rng"
)

// pairMatrix builds a seeded observation matrix shaped like the
// runtime's surfaces: denseRows fully-observed leading rows, then
// sparse rows with sparseObs scattered observations each.
func pairMatrix(seed uint64, rows, cols, denseRows, sparseObs int) *Matrix {
	r := rng.New(seed)
	m := NewMatrix(rows, cols)
	for i := 0; i < denseRows; i++ {
		for j := 0; j < cols; j++ {
			m.Observe(i, j, 0.5+2*r.Float64())
		}
	}
	for i := denseRows; i < rows; i++ {
		for n := 0; n < sparseObs; n++ {
			m.Observe(i, r.Intn(cols), 0.5+2*r.Float64())
		}
	}
	return m
}

func predBitsEqual(t *testing.T, name string, got, want *Prediction) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols || got.Iters != want.Iters || got.Observed != want.Observed {
		t.Fatalf("%s: header mismatch: got %d×%d iters=%d obs=%d, want %d×%d iters=%d obs=%d",
			name, got.Rows, got.Cols, got.Iters, got.Observed, want.Rows, want.Cols, want.Iters, want.Observed)
	}
	for i := 0; i < got.Rows; i++ {
		for j := 0; j < got.Cols; j++ {
			g, w := got.At(i, j), want.At(i, j)
			if math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("%s: (%d,%d) = %x, want %x (%v vs %v)",
					name, i, j, math.Float64bits(g), math.Float64bits(w), g, w)
			}
		}
	}
}

// TestReconstructPairBitIdentical drives the paired trainer across the
// shapes the runtime actually pairs — same-shape, different row
// counts, sparse tails, bias-frozen rows, log-space — and demands
// exact float64 equality with the independent per-surface path.
func TestReconstructPairBitIdentical(t *testing.T) {
	cases := []struct {
		name   string
		a, b   *Matrix
		pa, pb Params
	}{
		{
			name: "same-shape dense+sparse",
			a:    pairMatrix(1, 32, 108, 16, 6),
			b:    pairMatrix(2, 32, 108, 16, 6),
			pa:   Params{Factors: 6, Reg: 0.03, MaxIter: 60, SVDInit: true, LogSpace: true},
			pb:   Params{Factors: 6, Reg: 0.03, MaxIter: 60, SVDInit: true, LogSpace: true},
		},
		{
			name: "different row counts (thr vs pwr shape)",
			a:    pairMatrix(3, 32, 108, 16, 4),
			b:    pairMatrix(4, 35, 108, 16, 4),
			pa:   Params{Factors: 6, Reg: 0.03, MaxIter: 50, SVDInit: true, LogSpace: true},
			pb:   Params{Factors: 6, Reg: 0.03, MaxIter: 50, SVDInit: true, LogSpace: true},
		},
		{
			name: "bias-frozen sparse rows",
			a:    pairMatrix(5, 20, 108, 12, 2),
			b:    pairMatrix(6, 20, 108, 12, 2),
			pa:   Params{Factors: 6, Reg: 0.03, MaxIter: 40, SVDInit: true, LogSpace: true, FactorMinObs: 4},
			pb:   Params{Factors: 6, Reg: 0.03, MaxIter: 40, SVDInit: true, LogSpace: true, FactorMinObs: 4},
		},
		{
			name: "linear space, random init, single worker",
			a:    pairMatrix(7, 16, 54, 8, 5),
			b:    pairMatrix(8, 16, 54, 8, 5),
			pa:   Params{Factors: 6, MaxIter: 40, Seed: 11},
			pb:   Params{Factors: 6, MaxIter: 40, Seed: 12},
		},
		{
			name: "unequal MaxIter falls back",
			a:    pairMatrix(9, 16, 108, 8, 3),
			b:    pairMatrix(10, 16, 108, 8, 3),
			pa:   Params{Factors: 6, MaxIter: 30, SVDInit: true},
			pb:   Params{Factors: 6, MaxIter: 45, SVDInit: true},
		},
		{
			name: "non-kernel rank falls back",
			a:    pairMatrix(11, 16, 108, 8, 3),
			b:    pairMatrix(12, 16, 108, 8, 3),
			pa:   Params{Factors: 8, MaxIter: 30, SVDInit: true},
			pb:   Params{Factors: 8, MaxIter: 30, SVDInit: true},
		},
		{
			name: "different column counts fall back",
			a:    pairMatrix(13, 16, 108, 8, 3),
			b:    pairMatrix(14, 16, 54, 8, 3),
			pa:   Params{Factors: 6, MaxIter: 30, SVDInit: true},
			pb:   Params{Factors: 6, MaxIter: 30, SVDInit: true},
		},
		{
			name: "empty lane",
			a:    pairMatrix(15, 16, 108, 8, 3),
			b:    NewMatrix(16, 108),
			pa:   Params{Factors: 6, MaxIter: 30, SVDInit: true},
			pb:   Params{Factors: 6, MaxIter: 30, SVDInit: true},
		},
		{
			name: "no dense prefix falls back",
			a:    pairMatrix(17, 16, 108, 0, 5),
			b:    pairMatrix(18, 16, 108, 8, 5),
			pa:   Params{Factors: 6, MaxIter: 30},
			pb:   Params{Factors: 6, MaxIter: 30},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wantA := Reconstruct(tc.a, tc.pa)
			wantB := Reconstruct(tc.b, tc.pb)
			gotA, gotB := ReconstructPair(tc.a, tc.b, tc.pa, tc.pb)
			predBitsEqual(t, "lane A", gotA, wantA)
			predBitsEqual(t, "lane B", gotB, wantB)
		})
	}
}

// TestReconstructPairWarmStart pairs two warm-started lanes and a
// mixed warm/cold pair (unequal effective sweep counts → fallback).
func TestReconstructPairWarmStart(t *testing.T) {
	base := Params{Factors: 6, Reg: 0.03, MaxIter: 60, SVDInit: true, LogSpace: true}
	a := pairMatrix(21, 24, 108, 12, 4)
	b := pairMatrix(22, 24, 108, 12, 4)
	_, facA, err := ReconstructFactors(a, base)
	if err != nil {
		t.Fatal(err)
	}
	_, facB, err := ReconstructFactors(b, base)
	if err != nil {
		t.Fatal(err)
	}

	warmA, warmB := base, base
	warmA.Warm, warmA.WarmIters = facA, 20
	warmB.Warm, warmB.WarmIters = facB, 20
	wantA := Reconstruct(a, warmA)
	wantB := Reconstruct(b, warmB)
	gotA, gotB := ReconstructPair(a, b, warmA, warmB)
	predBitsEqual(t, "warm lane A", gotA, wantA)
	predBitsEqual(t, "warm lane B", gotB, wantB)

	// Warm lane beside a cold lane: effective MaxIter differs, so the
	// pair must fall back — and still match exactly.
	wantCold := Reconstruct(b, base)
	gotA, gotCold := ReconstructPair(a, b, warmA, base)
	predBitsEqual(t, "mixed warm lane", gotA, wantA)
	predBitsEqual(t, "mixed cold lane", gotCold, wantCold)
}

// TestReconstructPairFactors checks the captured factor state is
// byte-identical to the per-surface capture path, and that cold
// models yield nil factors.
func TestReconstructPairFactors(t *testing.T) {
	p := Params{Factors: 6, Reg: 0.03, MaxIter: 50, SVDInit: true, LogSpace: true}
	a := pairMatrix(31, 32, 108, 16, 5)
	b := pairMatrix(32, 33, 108, 16, 5)
	_, wantFA, err := ReconstructFactors(a, p)
	if err != nil {
		t.Fatal(err)
	}
	_, wantFB, err := ReconstructFactors(b, p)
	if err != nil {
		t.Fatal(err)
	}
	gotA, gotB, gotFA, gotFB := ReconstructPairFactors(a, b, p, p)
	predBitsEqual(t, "lane A", gotA, Reconstruct(a, p))
	predBitsEqual(t, "lane B", gotB, Reconstruct(b, p))
	if gotFA.Fingerprint() != wantFA.Fingerprint() {
		t.Fatalf("lane A factors diverge: %x vs %x", gotFA.Fingerprint(), wantFA.Fingerprint())
	}
	if gotFB.Fingerprint() != wantFB.Fingerprint() {
		t.Fatalf("lane B factors diverge: %x vs %x", gotFB.Fingerprint(), wantFB.Fingerprint())
	}

	// Cold lane exports nil factors, mirroring ReconstructFactors.
	_, _, _, coldF := ReconstructPairFactors(a, NewMatrix(16, 108), p, p)
	if coldF != nil {
		t.Fatalf("cold lane exported factors: %+v", coldF)
	}
}

// BenchmarkReconstructPair measures the paired trainer against two
// independent reconstructions of the runtime's surface shape.
func BenchmarkReconstructPair(b *testing.B) {
	p := Params{Factors: 6, Reg: 0.03, MaxIter: 300, SVDInit: true, LogSpace: true}
	ma := pairMatrix(41, 32, 108, 16, 6)
	mb := pairMatrix(42, 33, 108, 16, 6)
	b.Run("paired", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ReconstructPair(ma, mb, p, p)
		}
	})
	b.Run("serial2x", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Reconstruct(ma, p)
			Reconstruct(mb, p)
		}
	})
}
