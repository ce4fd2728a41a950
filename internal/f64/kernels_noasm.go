//go:build !amd64

package f64

// Non-amd64 builds run the pure-Go kernel bodies; the asm entry points
// below exist only to satisfy the dispatch code and are unreachable
// while useAsm is false.

const useAsm = false
const useAVX512 = false

// Accelerated reports whether the AVX2 kernel bodies are active:
// never, off amd64. It only describes the host (the benchmark ledger's
// fingerprint records it).
func Accelerated() bool { return false }

func axpyAVX(dst, x *float64, a float64, n int) { panic("f64: no asm") }

func addAVX(dst, x *float64, n int) { panic("f64: no asm") }

func addSkipAVX(dst, x *float64, n int) { panic("f64: no asm") }

func reduceSkipAVX(dst, src *float64, n int) { panic("f64: no asm") }

func scaleAVX(dst *float64, a float64, n int) { panic("f64: no asm") }

func scaleSkipAVX(dst *float64, a float64, n int) { panic("f64: no asm") }

func mulAVX(dst, a, b *float64, n int) { panic("f64: no asm") }

func adamStepAVX(w, grad, m, v *float64, n int, beta1, c1, beta2, c2, lr, eps, bc1, bc2 float64) {
	panic("f64: no asm")
}

func axpyRowsAVX(w, dst, xs *float64, rows, width int) { panic("f64: no asm") }

func dotRows4AVX(w, g4, o0, o1, o2, o3 *float64, rows, width int) { panic("f64: no asm") }

func axpyRows512(w, dst, xs *float64, rows, width int) { panic("f64: no asm") }

func adamStep512(w, grad, m, v *float64, n int, beta1, c1, beta2, c2, lr, eps, bc1, bc2 float64) {
	panic("f64: no asm")
}

func dotRows512(w, g4, o0, o1, o2, o3 *float64, rows, width int) { panic("f64: no asm") }

func gradRowsT512(grad, gs, xs *float64, rows, width, steps int) { panic("f64: no asm") }

func gradRowsTAVX(grad, gs, xs *float64, rows, width, steps int) { panic("f64: no asm") }

func lstmGates4(ig, fg, gg, og, c, tc, pre, cPrev *float64, hn int) int { panic("f64: no asm") }
