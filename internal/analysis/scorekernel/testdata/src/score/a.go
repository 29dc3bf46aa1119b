// Package score mirrors internal/score's sharper rule: the score's
// math.Log/math.Lgamma spellings are permitted only in Prior.LogML,
// Kernel.LogML, the table builder NewKernel and the approximate logarithm's
// table initialiser newLogTable; fastLog is called from Kernel.SplitImproves
// only. The memo serves cached bits and must compute no logarithm itself,
// and the batched evaluation scores through Kernel.LogML: a logarithm
// spelled in it, or in any other batched helper, is flagged.
package score

import "math"

type Prior struct{ Alpha0 float64 }

type Kernel struct{ tables []float64 }

type Memo struct{ kern *Kernel }

func (p Prior) LogML(x float64) float64 {
	v, _ := math.Lgamma(x + p.Alpha0)
	return v - math.Log(x)
}

func (k *Kernel) LogML(x float64) float64 {
	return k.tables[0] - math.Log(x)
}

// A sanctioned kernel spelling may take logarithms, but not math.Exp.
func NewKernel(x float64) *Kernel {
	lg, _ := math.Lgamma(x)
	return &Kernel{tables: []float64{lg + math.Log(x), math.Exp(x)}} // want "math.Exp in a deterministic package"
}

func newLogTable() [2]float64 {
	return [2]float64{math.Log(1.25), math.Log(1.75)}
}

var logTab = newLogTable()

func fastLog(x float64) float64 { return logTab[0] + (x - 1.25) }

func (k *Kernel) SplitImproves(l, r, totML float64) bool {
	return k.tables[0]-fastLog(l)-fastLog(r)-totML > 0
}

func (k *Kernel) LogMLBatch(dst, xs []float64) {
	for i, x := range xs {
		dst[i] = k.LogML(x)
	}
}

func (k *Kernel) logMLBatchInline(dst, xs []float64) {
	for i, x := range xs {
		dst[i] = k.tables[0] - math.Log(x) // want "math.Log in package score outside Prior.LogML/Kernel.LogML/NewKernel/newLogTable"
	}
}

func logPortable(dst, src []float64) {
	for i, x := range src {
		dst[i] = math.Log(x) // want "math.Log in package score outside Prior.LogML/Kernel.LogML/NewKernel/newLogTable"
	}
}

func logsUnrolled(dst, src []float64) {
	for i := 0; i+1 < len(src); i += 2 {
		dst[i] = math.Log(src[i])     // want "math.Log in package score outside Prior.LogML/Kernel.LogML/NewKernel/newLogTable"
		dst[i+1] = math.Log(src[i+1]) // want "math.Log in package score outside Prior.LogML/Kernel.LogML/NewKernel/newLogTable"
	}
}

func (m *Memo) LogML(x float64) float64 {
	return math.Log(x) // want "math.Log in package score outside Prior.LogML/Kernel.LogML/NewKernel/newLogTable"
}

func (m *Memo) approxLogML(x float64) float64 {
	return m.kern.tables[0] - fastLog(x) // want "fastLog outside Kernel.SplitImproves"
}

func fasterLog(x float64) float64 {
	return math.Log(float64(float32(x))) // want "math.Log in package score outside Prior.LogML/Kernel.LogML/NewKernel/newLogTable"
}

func helper(x float64) float64 {
	v, _ := math.Lgamma(x) // want "direct math.Lgamma call outside the pinned LogML kernels"
	return v + math.Log(x) // want "math.Log in package score outside Prior.LogML/Kernel.LogML/NewKernel/newLogTable"
}

func otherMathIsFine(x float64) float64 {
	return math.Sqrt(x) + exp(x)
}

// exp stands for the package's own exponential, the one spelling.
func exp(x float64) float64 { return x }

func hostExp(x float64) float64 {
	return math.Exp(x) // want "math.Exp in a deterministic package"
}

func newExpTable() [2]float64 {
	return [2]float64{math.Exp(1), exp(2)} // want "math.Exp in a deterministic package"
}

func audited(x float64) float64 {
	//parsivet:scorekernel — deliberate second spelling (testdata)
	return math.Log(x)
}
