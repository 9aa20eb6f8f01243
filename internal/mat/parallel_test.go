package mat

import (
	"math"
	"math/rand/v2"
	"runtime"
	"testing"
)

func bitsEqual(a, b *Dense) bool {
	if a.rows != b.rows || a.cols != b.cols {
		return false
	}
	for i, v := range a.data {
		if math.Float64bits(v) != math.Float64bits(b.data[i]) {
			return false
		}
	}
	return true
}

// A Gram of one chunk keeps MulATB's summation order, so it is
// bit-identical to it; several chunks regroup the sum, so they agree to
// rounding — and whatever the chunk count, GOMAXPROCS never changes a bit.
func TestGramChunkedReduction(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewPCG(21, 22))
	for _, rows := range []int{0, 1, 7, ChunkRows, ChunkRows + 1, 3*ChunkRows + 17} {
		a := randDense(rng, rows, 6)
		if rows > 0 {
			a.Set(rows/2, 2, 0) // exercise the zero-skip
		}
		want := MulATB(a, a)
		runtime.GOMAXPROCS(1)
		g1 := Gram(a)
		if NumChunks(rows) <= 1 && !bitsEqual(g1, want) {
			t.Fatalf("rows=%d: single-chunk Gram differs from MulATB", rows)
		}
		if d := MaxAbsDiff(g1, want); d > 1e-12*float64(max(rows, 1)) {
			t.Fatalf("rows=%d: Gram differs from MulATB by %v", rows, d)
		}
		for _, procs := range []int{2, 4} {
			runtime.GOMAXPROCS(procs)
			if !bitsEqual(Gram(a), g1) {
				t.Fatalf("rows=%d: Gram at GOMAXPROCS=%d differs from GOMAXPROCS=1", rows, procs)
			}
		}
	}
}

func TestForChunksCoversEveryRowOnce(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const rows = 5*ChunkRows + 3
	seen := make([]int, rows)
	chunks := make([]int, NumChunks(rows))
	ForChunks(rows, func(c, lo, hi int) {
		chunks[c]++
		if lo != c*ChunkRows || hi-lo > ChunkRows {
			t.Errorf("chunk %d spans [%d, %d)", c, lo, hi)
		}
		for i := lo; i < hi; i++ {
			seen[i]++
		}
	})
	for c, n := range chunks {
		if n != 1 {
			t.Fatalf("chunk %d ran %d times", c, n)
		}
	}
	for i, n := range seen {
		if n != 1 {
			t.Fatalf("row %d visited %d times", i, n)
		}
	}
}

func TestInverseSPDIntoMatchesInverseSPD(t *testing.T) {
	rng := rand.New(rand.NewPCG(23, 24))
	for _, n := range []int{1, 4, 16} {
		a := randSPD(rng, n)
		want, err := InverseSPD(a)
		if err != nil {
			t.Fatal(err)
		}
		dst, ws := randDense(rng, n, n), randDense(rng, n, n) // stale contents
		if err := InverseSPDInto(dst, a, ws); err != nil {
			t.Fatal(err)
		}
		if !bitsEqual(dst, want) {
			t.Fatalf("n=%d: InverseSPDInto differs from InverseSPD", n)
		}
	}
	// Not positive definite: the LU fallback still inverts.
	a := NewDenseData(2, 2, []float64{0, 1, 1, 0})
	dst, ws := NewDense(2, 2), NewDense(2, 2)
	if err := InverseSPDInto(dst, a, ws); err != nil {
		t.Fatal(err)
	}
	if !bitsEqual(dst, a) {
		t.Fatalf("inverse of the swap matrix = %v, want itself", dst)
	}
}

func TestLanczosFromMatchesLanczos(t *testing.T) {
	rng := rand.New(rand.NewPCG(25, 26))
	op := DenseOp{randSPD(rng, 40)}
	want, err := Lanczos(op, 5, 0, rand.New(rand.NewPCG(7, 8)))
	if err != nil {
		t.Fatal(err)
	}
	start := LanczosStart(40, rand.New(rand.NewPCG(7, 8)))
	saved := append([]float64(nil), start...)
	got, err := LanczosFrom(op, 5, 0, start)
	if err != nil {
		t.Fatal(err)
	}
	if !bitsEqual(got.Vectors, want.Vectors) || !bitsEqual(NewDenseData(1, 5, got.Values), NewDenseData(1, 5, want.Values)) {
		t.Fatal("LanczosFrom differs from Lanczos with the same draw")
	}
	for i := range start {
		if math.Float64bits(start[i]) != math.Float64bits(saved[i]) {
			t.Fatal("LanczosFrom modified its start vector")
		}
	}
	if _, err := LanczosFrom(op, 5, 0, start[:10]); err == nil {
		t.Fatal("short start vector accepted")
	}
}
