// Seeded scorekernel cases in a deterministic (non-score) package.
package engine

import "math"

func directLgamma(x float64) float64 {
	v, _ := math.Lgamma(x) // want "direct math.Lgamma call outside the pinned LogML kernels"
	return v
}

func inExpression(x float64) float64 {
	a, _ := math.Lgamma(x + 0.5) // want "direct math.Lgamma call outside the pinned LogML kernels"
	b, _ := math.Lgamma(x)       // want "direct math.Lgamma call outside the pinned LogML kernels"
	return a - b
}

// A package outside the deterministic set may take math.Exp.
func otherMathIsFine(x float64) float64 {
	return math.Log(x) + math.Sqrt(x) + math.Exp(x)
}

func audited(x float64) float64 {
	//parsivet:scorekernel — not a block score (testdata)
	v, _ := math.Lgamma(x)
	return v
}
