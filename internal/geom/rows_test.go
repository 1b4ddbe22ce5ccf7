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
			for i, p := range pts {
				if r := rows.Row(i); !Equal(r, p) || cap(r) != d {
					t.Fatalf("d=%d n=%d: Row(%d) = %v (cap %d), want %v", d, n, i, r, cap(r), p)
				}
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

// The direction-blocked scan must answer, for every direction, exactly
// what MaxDot answers one direction at a time: the same index (ties to
// the smallest) and the same value bits, whether the direction falls in
// a block of four or in the remainder.
func TestRowsMaxDotsMatchMaxDot(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for d := 1; d <= 8; d++ {
		for _, n := range []int{1, 2, 5, 64, 103} {
			pts := make([]Vector, n)
			for i := range pts {
				pts[i] = NewVector(d)
				for k := range pts[i] {
					pts[i][k] = rng.NormFloat64()
				}
			}
			if n > 3 {
				pts[2] = pts[2].Scale(10) // far out: it owns its own direction
				pts[n-1] = pts[2].Clone() // an exact tie: argmax must stay at the smaller index
			}
			rows := NewRows(pts)
			for _, m := range []int{0, 1, 3, 4, 6, 7, 13, 2*d + 128} {
				us := make([]Vector, m)
				for j := range us {
					us[j] = NewVector(d)
					for k := range us[j] {
						us[j][k] = rng.NormFloat64()
					}
					if j%3 == 1 && n > 3 {
						us[j] = pts[2].Clone() // direction owned by the duplicated row
					}
				}
				idx, val := make([]int, m), make([]float64, m)
				rows.MaxDots(us, idx, val)
				for j, u := range us {
					ri, rv := rows.MaxDot(u)
					wi, wv := MaxDot(pts, u)
					if idx[j] != ri || math.Float64bits(val[j]) != math.Float64bits(rv) {
						t.Fatalf("d=%d n=%d m=%d dir %d: MaxDots (%d, %v) vs Rows.MaxDot (%d, %v)", d, n, m, j, idx[j], val[j], ri, rv)
					}
					if idx[j] != wi || math.Float64bits(val[j]) != math.Float64bits(wv) {
						t.Fatalf("d=%d n=%d m=%d dir %d: MaxDots (%d, %v) vs geom.MaxDot (%d, %v)", d, n, m, j, idx[j], val[j], wi, wv)
					}
					if n > 3 && j%3 == 1 && idx[j] != 2 {
						t.Fatalf("d=%d n=%d m=%d dir %d: tie went to row %d, want 2", d, n, m, j, idx[j])
					}
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

// The Clarkson warm start: 2d+128 support scans over 10 000 3-D points.
func BenchmarkRowsMaxDots(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	pts := make([]Vector, 10000)
	for i := range pts {
		pts[i] = Vector{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
	}
	dirs := make([]Vector, 134)
	for i := range dirs {
		dirs[i] = Vector{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
	}
	rows := NewRows(pts)
	idx, val := make([]int, len(dirs)), make([]float64, len(dirs))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows.MaxDots(dirs, idx, val)
	}
	benchSink = val[0]
}
