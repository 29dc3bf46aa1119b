package score

import "math"

// The constants of exp: math/exp_amd64.s's spellings, so they round to the
// same bits. ln 2 is split into a high part of 32 significant bits and the
// rest, so k·ln2Hi is exact for the k of the domain.
const (
	expLog2E = 1.4426950408889634073599246810018920
	expLn2Hi = 0.69314718055966295651160180568695068359375
	expLn2Lo = 0.28235290563031577122588448175013436025525412068e-12
	// The Taylor coefficients 1/k! of e^r, k = 8 down to 3, that the
	// polynomial takes before 1/2 and 1.
	expC8 = 2.4801587301587301587e-5
	expC7 = 1.9841269841269841270e-4
	expC6 = 1.3888888888888888889e-3
	expC5 = 8.3333333333333333333e-3
	expC4 = 4.1666666666666666667e-2
	expC3 = 1.6666666666666666667e-1
)

// exp is e^x for x in [−708, 708], the only exponential of the engine (the
// weight step's, DESIGN §31). It is the FMA branch of math/exp_amd64.s
// (Shibata's method) step for step, so it is bit-identical to math.Exp on
// an amd64 CPU with FMA, and, because math.FMA rounds once on every GOARCH
// and every other product is rounded by an explicit float64(…), it gives
// those bits on every host:
//   - k = x·log₂e rounded to the nearest integer, ties to even (CVTSD2SL);
//   - r = (x − k·ln2Hi − k·ln2Lo)/16, each subtraction one fused step;
//   - e^r − 1 from the degree-8 Taylor polynomial in Horner form, fused,
//     then squared up four times as u·(u+2), the last step fused with the
//     +1, which gives e^(16r);
//   - times 2^k, built in the exponent field.
//
// Outside that domain the result is not e^x: the scale 2^k is not a normal
// float64 there.
func exp(x float64) float64 {
	k := math.RoundToEven(float64(x * expLog2E))
	r := math.FMA(-k, expLn2Hi, x)
	r = math.FMA(-k, expLn2Lo, r)
	r = float64(r * 0.0625)
	p := math.FMA(expC8, r, expC7)
	p = math.FMA(p, r, expC6)
	p = math.FMA(p, r, expC5)
	p = math.FMA(p, r, expC4)
	p = math.FMA(p, r, expC3)
	p = math.FMA(p, r, 0.5)
	p = math.FMA(p, r, 1)
	u := float64(r * p)
	u = float64(u * (u + 2))
	u = float64(u * (u + 2))
	u = float64(u * (u + 2))
	u = math.FMA(u, u+2, 1)
	return float64(u * math.Float64frombits(uint64(int64(k)+1023)<<52))
}
