package nn

// useAVX selects tile4x8 for mulAcc's 4×8 blocks. It is set once, at init,
// from the CPU and the OS: CPUID reports AVX and OSXSAVE, and XGETBV reports
// that the OS saves the YMM registers. Without AVX, amd64 runs the Go tiles
// every other GOARCH runs. Nothing writes it after init except the kernel
// agreement test, which runs both paths.
var useAVX = haveAVX()

func haveAVX() bool {
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx := cpuidECX(); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	const sse, ymm = 1 << 1, 1 << 2
	return xcr0()&(sse|ymm) == sse|ymm
}

// cpuidECX returns ECX of CPUID leaf 1, the feature bits (matrix_amd64.s).
func cpuidECX() uint32

// xcr0 returns the low half of XCR0, the register state the OS saves
// (matrix_amd64.s). Call it only where CPUID reports OSXSAVE.
func xcr0() uint32

// tile4x8 adds four rows of a times columns 0-7 of b into four rows of d, in
// AVX (matrix_amd64.s): a holds the rows at stride k, b's and d's rows are n
// apart. The caller proves every bound: len(d) >= 3*n+8, len(a) >= 4*k and
// len(b) >= (k-1)*n+8.
//
//go:noescape
func tile4x8(d, a, b []float64, k, n int)

// avxBlocks adds a×b into dst over the rows and columns that whole 4×8 tiles
// cover, and returns their counts: 0 and 0 where useAVX is off. The slice
// expressions before each tile4x8 call are its bounds checks: the assembly
// checks none.
func avxBlocks(dst, a, b *Matrix) (rows, cols int) {
	if !useAVX {
		return 0, 0
	}
	k, n := a.Cols, b.Cols
	rows, cols = a.Rows&^3, n&^7
	for i := 0; i < rows; i += 4 {
		ai := a.Data[i*k : (i+4)*k]
		for j := 0; j < cols; j += 8 {
			tile4x8(dst.Data[i*n+j:(i+3)*n+j+8], ai, b.Data[j:(k-1)*n+j+8], k, n)
		}
	}
	return rows, cols
}
