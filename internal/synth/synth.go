// Package synth generates module-structured gene-expression data sets with
// known ground truth. It stands in for the paper's real compendia (yeast,
// n=5716 × m=2577, and A. thaliana, n=18373 × m=5102; see DESIGN.md §2):
// the learner's run time and scaling behaviour depend on the matrix shape
// and the cluster structure of the data, both of which the generator
// controls, while the ground truth additionally enables accuracy studies the
// real data sets cannot support.
//
// The generative model mirrors the module-network semantics of §2.1:
// regulator variables respond to condition groups; each module is driven by
// a small regulator program (a threshold rule, i.e. a depth-limited
// regression tree over its regulators); member genes express the module mean
// plus independent noise.
package synth

import (
	"fmt"

	"parsimone/internal/dataset"
	"parsimone/internal/prng"
)

// Config controls the generated data set.
type Config struct {
	// N is the number of variables, M the number of observations.
	N, M int
	// Modules is the number of ground-truth modules; 0 derives it as
	// max(2, N/35), which matches the paper's observed growth of the
	// learned module count with n (§5.2.2: K grew 28–39 at n=1000 to
	// 111–170 at n=5716).
	Modules int
	// Regulators is the number of regulator variables; 0 derives it as
	// max(2, N/20). Regulators are the first variables of the data set.
	Regulators int
	// CondGroups is the number of condition (observation) groups; 0
	// derives it as max(2, ceil(sqrt(M))), the GaneSH initialization
	// heuristic.
	CondGroups int
	// Noise is the member-gene noise standard deviation relative to the
	// unit module signal; 0 defaults to 0.4.
	Noise float64
	// Seed drives the generator PRNG.
	Seed uint64
}

// withDefaults returns cfg with derived values filled in.
func (cfg Config) withDefaults() Config {
	if cfg.Modules == 0 {
		cfg.Modules = max(2, cfg.N/35)
	}
	if cfg.Regulators == 0 {
		cfg.Regulators = max(2, cfg.N/20)
	}
	if cfg.CondGroups == 0 {
		g := 2
		for g*g < cfg.M {
			g++
		}
		cfg.CondGroups = max(2, g)
	}
	//parsivet:floateq — zero-value sentinel for "option unset", never a computed float
	if cfg.Noise == 0 {
		cfg.Noise = 0.4
	}
	return cfg
}

func (cfg Config) validate() error {
	if cfg.N < 4 || cfg.M < 4 {
		return fmt.Errorf("synth: need at least 4×4, got %d×%d", cfg.N, cfg.M)
	}
	if cfg.Modules < 1 || cfg.Regulators < 1 || cfg.CondGroups < 1 {
		return fmt.Errorf("synth: modules, regulators, cond groups must be positive")
	}
	if cfg.Regulators+cfg.Modules > cfg.N {
		return fmt.Errorf("synth: %d regulators + %d modules exceed %d variables",
			cfg.Regulators, cfg.Modules, cfg.N)
	}
	if cfg.Noise < 0 {
		return fmt.Errorf("synth: negative noise %v", cfg.Noise)
	}
	return nil
}

// Truth records the generative ground truth.
type Truth struct {
	// ModuleOf maps each variable to its module in [0, Modules), or -1
	// for regulator variables (which belong to no module).
	ModuleOf []int
	// Regulators lists, per module, the variable indices of its drivers.
	Regulators [][]int
	// CondGroup maps each observation to its condition group.
	CondGroup []int
	// NumModules and NumGroups echo the effective configuration.
	NumModules, NumGroups int
}

// Generate produces a data set and its ground truth. The first
// cfg.Regulators variables are regulators (named R####), the rest are module
// members (named G####). Values are roughly unit scale.
func Generate(cfg Config) (*dataset.Data, *Truth, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, nil, err
	}
	g := prng.New(cfg.Seed)
	d := dataset.New(cfg.N, cfg.M)
	truth := &Truth{
		ModuleOf:   make([]int, cfg.N),
		Regulators: make([][]int, cfg.Modules),
		CondGroup:  make([]int, cfg.M),
		NumModules: cfg.Modules,
		NumGroups:  cfg.CondGroups,
	}

	// Assign observations to condition groups round-robin so every group
	// is populated, then shuffle for realism.
	for j := 0; j < cfg.M; j++ {
		truth.CondGroup[j] = j % cfg.CondGroups
	}
	for j := cfg.M - 1; j > 0; j-- {
		k := g.Intn(j + 1)
		truth.CondGroup[j], truth.CondGroup[k] = truth.CondGroup[k], truth.CondGroup[j]
	}

	// Regulators: per-group baseline in {−1, +1} scaled, plus small noise,
	// so regulator values separate cleanly at threshold 0 — giving the
	// split-assignment phase real signal to find.
	groupLevel := make([][]float64, cfg.Regulators)
	seenLevels := make(map[string]bool, cfg.Regulators)
	for r := 0; r < cfg.Regulators; r++ {
		d.Names[r] = fmt.Sprintf("R%04d", r)
		truth.ModuleOf[r] = -1
		var levels []float64
		// Distinct activity patterns per regulator, or regulators are
		// mutually indistinguishable as parents (retry budget only
		// exhausted when regulators vastly outnumber sign patterns).
		for try := 0; try < 64; try++ {
			levels = make([]float64, cfg.CondGroups)
			key := make([]byte, cfg.CondGroups)
			for c := range levels {
				if g.Intn(2) == 0 {
					levels[c] = -1
					key[c] = '-'
				} else {
					levels[c] = 1
					key[c] = '+'
				}
			}
			if !seenLevels[string(key)] {
				seenLevels[string(key)] = true
				break
			}
		}
		groupLevel[r] = levels
		for j := 0; j < cfg.M; j++ {
			d.Set(r, j, levels[truth.CondGroup[j]]+0.2*g.Normal())
		}
	}

	// Module programs: 1–3 regulators each; module mean per observation is
	// a weighted threshold rule over the regulators' true group levels.
	type program struct {
		regs    []int
		weights []float64
	}
	programs := make([]program, cfg.Modules)
	// signature is the sign pattern of a program's output across condition
	// groups; modules must have distinct signatures or their standardized
	// expression profiles coincide and no clustering method can separate
	// them.
	signature := func(pr program) string {
		sig := make([]byte, cfg.CondGroups)
		for c := 0; c < cfg.CondGroups; c++ {
			var mean float64
			for t, r := range pr.regs {
				if groupLevel[r][c] > 0 {
					mean += pr.weights[t]
				} else {
					mean -= pr.weights[t]
				}
			}
			if mean > 0 {
				sig[c] = '+'
			} else {
				sig[c] = '-'
			}
		}
		return string(sig)
	}
	seenSig := make(map[string]bool, cfg.Modules)
	for mod := 0; mod < cfg.Modules; mod++ {
		var pr program
		for try := 0; try < 64; try++ {
			pr = program{}
			nr := 1 + g.Intn(min(3, cfg.Regulators))
			seen := make(map[int]bool, nr)
			for len(pr.regs) < nr {
				r := g.Intn(cfg.Regulators)
				if seen[r] {
					continue
				}
				seen[r] = true
				pr.regs = append(pr.regs, r)
				pr.weights = append(pr.weights, 0.5+g.Float64())
			}
			if sig := signature(pr); !seenSig[sig] {
				seenSig[sig] = true
				break
			}
			// Duplicate signature: resample (accepted as-is after the
			// retry budget, which only triggers when modules vastly
			// outnumber distinguishable sign patterns).
		}
		programs[mod] = pr
		truth.Regulators[mod] = append([]int(nil), pr.regs...)
	}

	// Member genes: contiguous module blocks. Every module is populated,
	// and — like real gene orderings, where co-regulated genes are
	// scattered rather than interleaved one-per-module — a prefix of the
	// variables covers proportionally fewer modules, so the module count
	// K of a "first n variables" subset grows with n, the driver of the
	// paper's superlinear n-scaling (§5.2.2).
	members := cfg.N - cfg.Regulators
	for k := 0; k < members; k++ {
		i := cfg.Regulators + k
		mod := k * cfg.Modules / members
		truth.ModuleOf[i] = mod
		d.Names[i] = fmt.Sprintf("G%04d", i)
		pr := programs[mod]
		offset := 0.3 * g.Normal() // per-gene baseline shift
		for j := 0; j < cfg.M; j++ {
			var mean float64
			for t, r := range pr.regs {
				if groupLevel[r][truth.CondGroup[j]] > 0 {
					mean += pr.weights[t]
				} else {
					mean -= pr.weights[t]
				}
			}
			d.Set(i, j, mean+offset+cfg.Noise*g.Normal())
		}
	}
	return d, truth, nil
}
