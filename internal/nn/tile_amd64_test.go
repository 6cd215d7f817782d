package nn

import (
	"math"
	"math/rand"
	"testing"
)

// TestAVXTileAgreesWithGoTiles runs mulAcc, MatMulBiasInto and MatMulATAcc
// through the AVX tile and through the Go tiles — the path an amd64 without
// AVX and every other GOARCH takes — and requires the same bits over every
// shape with 1–9 rows, an inner dimension of 0–40 and 1–20 columns. The
// values mix ±0, subnormals, ±Inf, ±1e308 and NaNs with distinct payloads into
// ordinary numbers, so a fused multiply-add shows as a differing element. A
// NaN need only be a NaN: the Go compiler may put either factor of a product
// first, and with two NaN operands the first one's payload wins, so the Go
// tiles' payloads follow register allocation, not the source (the SSE2 tile
// this one replaced already differed from them there).
func TestAVXTileAgreesWithGoTiles(t *testing.T) {
	if !haveAVX() {
		t.Skip("this CPU or OS has no AVX: the Go tiles are the only path")
	}
	defer func(was bool) { useAVX = was }(useAVX)
	r := rand.New(rand.NewSource(52))
	specials := []float64{
		0, math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, -3 * math.SmallestNonzeroFloat64, 0x1p-1030,
		math.Inf(1), math.Inf(-1), 1e308, -1e308,
		math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0x7ff80000000000a5),
		math.Float64frombits(0xfff8000000000c03), math.Float64frombits(0x7ff0000000000042), // the last one signalling
	}
	fill := func(rows, cols int) *Matrix {
		m := NewMatrix(rows, cols)
		for i := range m.Data {
			if r.Intn(4) == 0 {
				m.Data[i] = specials[r.Intn(len(specials))]
			} else {
				m.Data[i] = r.NormFloat64() * math.Pow(10, float64(r.Intn(9)-4))
			}
		}
		return m
	}
	run := func(avx bool, f func(dst *Matrix), dst *Matrix) *Matrix {
		useAVX = avx
		out := dst.clone()
		f(out)
		return out
	}
	compared := 0
	check := func(what string, rows, k, cols int, dst *Matrix, f func(dst *Matrix)) {
		t.Helper()
		got, want := run(true, f, dst), run(false, f, dst)
		for i, w := range want.Data {
			if g := got.Data[i]; math.IsNaN(w) != math.IsNaN(g) || !math.IsNaN(w) && math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("%s %dx%d·%dx%d: element %d is %#x with AVX, %#x without",
					what, rows, k, k, cols, i, math.Float64bits(g), math.Float64bits(w))
			}
		}
		compared += len(want.Data)
	}
	var ws Workspace
	for rows := 1; rows <= 9; rows++ {
		for k := 0; k <= 40; k++ {
			for cols := 1; cols <= 20; cols++ {
				a, b, bias := fill(rows, k), fill(k, cols), fill(1, cols).Data
				check("mulAcc", rows, k, cols, fill(rows, cols), func(dst *Matrix) { mulAcc(dst, a, b) })
				check("MatMulBiasInto", rows, k, cols, fill(rows, cols), func(dst *Matrix) { MatMulBiasInto(dst, a, b, bias) })
				// aᵀ·c with a k×rows a: the packed operand has k rows.
				at, c := fill(k, rows), fill(k, cols)
				check("MatMulATAcc", rows, k, cols, fill(rows, cols), func(dst *Matrix) {
					ws.Reset()
					MatMulATAcc(dst, at, c, &ws)
				})
			}
		}
	}
	if compared == 0 {
		t.Fatal("no element compared")
	}
}
