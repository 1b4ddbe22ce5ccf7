package geom

import (
	"math"
	"math/rand"
	"testing"
)

// The flat kernel must reproduce Dot bit for bit (same accumulation
// order) and MaxDot's value and smallest-index argmax, for odd and even
// row counts across the dimensions the library runs in.
func TestRowsMatchGeomDot(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for d := 2; d <= 8; d++ {
		for _, n := range []int{1, 2, 7, 64, 101} {
			pts := make([]Vector, n)
			for i := range pts {
				pts[i] = NewVector(d)
				for k := range pts[i] {
					pts[i][k] = rng.NormFloat64()
				}
			}
			if n > 3 {
				pts[1] = pts[1].Scale(10) // far out: it owns its own direction
				pts[n-1] = pts[1].Clone() // an exact tie: argmax must stay at the smaller index
			}
			rows := NewRows(pts)
			if rows.Len() != n {
				t.Fatalf("d=%d n=%d: Len %d", d, n, rows.Len())
			}
			var out []float64
			for q := 0; q < 4096; q++ {
				u := NewVector(d)
				for k := range u {
					u[k] = rng.NormFloat64()
				}
				if q%2 == 1 && n > 3 {
					u = pts[1].Scale(1) // direction owned by the duplicated row
				}
				out = rows.Dots(u, out)
				if len(out) != n {
					t.Fatalf("d=%d n=%d: Dots returned %d values", d, n, len(out))
				}
				for i, p := range pts {
					if math.Float64bits(out[i]) != math.Float64bits(Dot(p, u)) {
						t.Fatalf("d=%d n=%d row %d: Dots %v vs Dot %v", d, n, i, out[i], Dot(p, u))
					}
				}
				bi, bv := rows.MaxDot(u)
				wi, wv := MaxDot(pts, u)
				if bi != wi || math.Float64bits(bv) != math.Float64bits(wv) {
					t.Fatalf("d=%d n=%d: MaxDot (%d, %v) vs geom.MaxDot (%d, %v)", d, n, bi, bv, wi, wv)
				}
			}
		}
	}
}

func TestRowsEmpty(t *testing.T) {
	rows := NewRows(nil)
	if rows.Len() != 0 || len(rows.Dots(nil, nil)) != 0 {
		t.Fatalf("empty block: Len %d", rows.Len())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MaxDot over an empty block must panic")
		}
	}()
	Rows{D: 2}.MaxDot(Vector{1, 0})
}

// ξ ≈ 100 five-dimensional extreme points: the SCMC working size.
func benchBlock() ([]Vector, []Vector) {
	rng := rand.New(rand.NewSource(1))
	pts := make([]Vector, 101)
	for i := range pts {
		pts[i] = Vector{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
	}
	dirs := make([]Vector, 256)
	for i := range dirs {
		dirs[i] = Vector{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
	}
	return pts, dirs
}

var benchSink float64

func BenchmarkRowsMaxDot(b *testing.B) {
	pts, dirs := benchBlock()
	rows := NewRows(pts)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, benchSink = rows.MaxDot(dirs[i%len(dirs)])
	}
}

func BenchmarkRowsDots(b *testing.B) {
	pts, dirs := benchBlock()
	rows := NewRows(pts)
	out := make([]float64, len(pts))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = rows.Dots(dirs[i%len(dirs)], out)
	}
	benchSink = out[0]
}

func BenchmarkGeomMaxDot(b *testing.B) {
	pts, dirs := benchBlock()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, benchSink = MaxDot(pts, dirs[i%len(dirs)])
	}
}
