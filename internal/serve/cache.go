// The exact result cache. A learned network is a pure function of
// (dataset, result-affecting options, seed) — the bit-identity the engine
// guarantees across every p×W execution (DESIGN §6) and the p-invariance
// tests pin. That purity makes an *exact* cache correct by construction:
// two submissions with the same key would learn byte-identical networks, so
// the second can be served from memory without a learning run, whatever
// rank/worker shape either submission asked for.

package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"hash"
	"math"
	"sync"

	"parsimone/internal/core"
	"parsimone/internal/dataset"
	"parsimone/internal/module"
	"parsimone/internal/score"
	"parsimone/internal/splits"
)

// canonicalOptions is the serialized form of exactly the result-affecting
// subset of core.Options. Scheduling and supervision knobs are deliberately
// absent — Ranks, Workers, GaneshGroups, DynamicChunk, ScanSelection,
// CoordTimeout, CheckpointDir, BinaryCheckpoints, MaxRestarts, Inject, Ctx,
// Events, Metrics and RecordWork — each documented result-invisible, so
// resubmitting the same learning problem at a different p×W (or with
// checkpointing toggled) still hits. TestCacheKeyClassifiesEveryOption
// fails on any core.Options leaf that is neither hashed here nor on that
// list. StreamLayout is not an option but a property of the build that is
// just as result-affecting: with it in the key, entries and
// content-addressed checkpoint directories of another PRNG stream layout
// (DESIGN §18) simply stop matching.
type canonicalOptions struct {
	StreamLayout int `json:"stream_layout"`

	PriorMu0     float64 `json:"mu0"`
	PriorLambda0 float64 `json:"lambda0"`
	PriorAlpha0  float64 `json:"alpha0"`
	PriorBeta0   float64 `json:"beta0"`

	Seed       uint64 `json:"seed"`
	GaneshRuns int    `json:"ganesh_runs"`

	GaneshInitVarClusters int `json:"ganesh_init_var_clusters"`
	GaneshInitObsClusters int `json:"ganesh_init_obs_clusters"`
	GaneshUpdates         int `json:"ganesh_updates"`

	CoOccurrenceThreshold float64 `json:"co_occurrence_threshold"`

	ConsensusMinClusterSize int     `json:"consensus_min_cluster_size"`
	ConsensusMinEigenvalue  float64 `json:"consensus_min_eigenvalue"`
	ConsensusSupportFrac    float64 `json:"consensus_support_frac"`
	ConsensusMaxIter        int     `json:"consensus_max_iter"`
	ConsensusTol            float64 `json:"consensus_tol"`

	TreeInitObsClusters int `json:"tree_init_obs_clusters"`
	TreeUpdates         int `json:"tree_updates"`
	TreeBurnin          int `json:"tree_burnin"`

	SplitsNumSplits   int     `json:"splits_num"`
	SplitsMaxSteps    int     `json:"splits_max_steps"`
	SplitsMinSteps    int     `json:"splits_min_steps"`
	SplitsCIHalfWidth float64 `json:"splits_ci_half_width"`
	Candidates        []int   `json:"candidates,omitempty"`

	Standardize bool `json:"standardize"`
}

func canonicalize(opt core.Options) canonicalOptions {
	return canonicalOptions{
		StreamLayout: splits.StreamLayout,

		PriorMu0:     opt.Prior.Mu0,
		PriorLambda0: opt.Prior.Lambda0,
		PriorAlpha0:  opt.Prior.Alpha0,
		PriorBeta0:   opt.Prior.Beta0,

		Seed:       opt.Seed,
		GaneshRuns: opt.GaneshRuns,

		GaneshInitVarClusters: opt.Ganesh.InitVarClusters,
		GaneshInitObsClusters: opt.Ganesh.InitObsClusters,
		GaneshUpdates:         opt.Ganesh.Updates,

		CoOccurrenceThreshold: opt.CoOccurrenceThreshold,

		ConsensusMinClusterSize: opt.Consensus.MinClusterSize,
		ConsensusMinEigenvalue:  opt.Consensus.MinEigenvalue,
		ConsensusSupportFrac:    opt.Consensus.SupportFrac,
		ConsensusMaxIter:        opt.Consensus.MaxIter,
		ConsensusTol:            opt.Consensus.Tol,

		TreeInitObsClusters: opt.Module.Tree.InitObsClusters,
		TreeUpdates:         opt.Module.Tree.Updates,
		TreeBurnin:          opt.Module.Tree.Burnin,

		SplitsNumSplits:   opt.Module.Splits.NumSplits,
		SplitsMaxSteps:    opt.Module.Splits.MaxSteps,
		SplitsMinSteps:    opt.Module.Splits.MinSteps,
		SplitsCIHalfWidth: opt.Module.Splits.CIHalfWidth,
		Candidates:        opt.Module.Splits.Candidates,

		Standardize: opt.Standardize,
	}
}

// CacheKey returns the exact result-cache key of a learning run: a sha256
// over the dataset's canonical bytes (shape, names, IEEE-754 value bits)
// and the canonicalized result-affecting options (which carry the seed).
// Keys are stable across processes, so the key also content-addresses the
// job's checkpoint directory — a resubmission after a drain resumes from
// exactly the checkpoints its earlier incarnation wrote.
func CacheKey(d *dataset.Data, opt core.Options) string {
	h := sha256.New()
	hashDataset(h, d)
	// The canonical struct has a fixed field order, so encoding/json gives
	// deterministic bytes.
	cb, err := json.Marshal(canonicalize(opt))
	if err != nil {
		panic("serve: canonical options not marshalable: " + err.Error())
	}
	h.Write(cb)
	return hex.EncodeToString(h.Sum(nil))
}

// hashDataset feeds the dataset's canonical bytes to h: the n×m shape,
// length-prefixed variable names, then every value's IEEE-754 bit pattern
// in row-major order.
func hashDataset(h hash.Hash, d *dataset.Data) {
	var buf [8]byte
	writeU64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	writeU64(uint64(d.N))
	writeU64(uint64(d.M))
	for _, name := range d.Names {
		writeU64(uint64(len(name)))
		h.Write([]byte(name))
	}
	for _, v := range d.Values {
		writeU64(math.Float64bits(v))
	}
}

// cacheEntry is one completed learning run: the inputs that keyed it and
// the output it produced. Prediction state (executable CPDs plus the
// training standardization statistics) is assembled lazily on the first
// predict query and shared by every job that resolves to this entry.
type cacheEntry struct {
	key  string
	data *dataset.Data
	opt  core.Options
	out  *core.Output

	once sync.Once
	cpds []*module.CPD
	// mean/sd are the per-variable training statistics used to map a raw
	// observation onto the standardized scale the CPDs were learned on
	// (nil when the run did not standardize).
	mean, sd []float64
	cpdErr   error
}

// predictors builds (once) and returns the entry's executable CPDs.
func (e *cacheEntry) predictors() ([]*module.CPD, error) {
	e.once.Do(func() {
		e.cpds, e.cpdErr = core.BuildCPDs(e.data, e.opt, e.out)
		if e.cpdErr == nil && e.opt.Standardize {
			e.mean, e.sd = e.data.Moments()
		}
	})
	return e.cpds, e.cpdErr
}

// standardize maps a raw observation (length n, original scale), in place,
// onto the scale the CPDs were learned on — the training data's own
// standardization. Call after predictors.
func (e *cacheEntry) standardize(obs []float64) {
	if !e.opt.Standardize {
		return
	}
	for i, v := range obs {
		obs[i] = dataset.Standardized(v, e.mean[i], e.sd[i])
	}
}

// predict evaluates every module's CPD on one raw observation vector
// (length n, original scale). The observation is standardized with the
// training statistics and quantized exactly as the training data was, then
// routed through each module's regression-tree ensemble.
func (e *cacheEntry) predict(obs []float64) ([]ModulePrediction, error) {
	cpds, err := e.predictors()
	if err != nil {
		return nil, err
	}
	e.standardize(obs)
	q := make([]int64, len(obs))
	for i, v := range obs {
		q[i] = score.Quantize(v)
	}
	preds := make([]ModulePrediction, 0, len(cpds))
	for _, cpd := range cpds {
		mean, variance := cpd.Predict(q)
		preds = append(preds, ModulePrediction{Module: cpd.Module, Mean: mean, Variance: variance})
	}
	return preds, nil
}
