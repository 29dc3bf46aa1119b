// The run key. A learned network is a pure function of (dataset,
// result-affecting options, seed) — the bit-identity the engine guarantees
// across every p×W execution (DESIGN §6) and the p-invariance tests pin. The
// key hashes exactly those inputs, so it is the one answer to "is this the
// same learning problem": the service's exact result cache and its
// content-addressed checkpoint directories are keyed by it, and every
// checkpoint file is stamped with it, so a directory resumes only the run
// that wrote it.

package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"hash"
	"math"

	"parsimone/internal/dataset"
	"parsimone/internal/splits"
)

// canonicalOptions is the serialized form of exactly the result-affecting
// subset of Options; every leaf left out is documented result-invisible where
// it is declared, and TestRunKeyClassifiesEveryOption fails on any leaf that
// is neither hashed here nor listed there. StreamLayout is not an option but
// a property of the build that is just as result-affecting: with it in the
// key, cache entries and checkpoints of another PRNG stream layout
// (DESIGN §18) simply stop matching.
type canonicalOptions struct {
	StreamLayout int `json:"stream_layout"`

	PriorMu0     float64 `json:"mu0"`
	PriorLambda0 float64 `json:"lambda0"`
	PriorAlpha0  float64 `json:"alpha0"`
	PriorBeta0   float64 `json:"beta0"`

	Seed       uint64 `json:"seed"`
	GaneshRuns int    `json:"ganesh_runs"`

	GaneshUpdates int `json:"ganesh_updates"`

	CoOccurrenceThreshold float64 `json:"co_occurrence_threshold"`

	ConsensusMaxIter int `json:"consensus_max_iter"`

	TreeUpdates int `json:"tree_updates"`
	TreeBurnin  int `json:"tree_burnin"`

	SplitsNumSplits int   `json:"splits_num"`
	SplitsMaxSteps  int   `json:"splits_max_steps"`
	Candidates      []int `json:"candidates,omitempty"`

	Standardize bool `json:"standardize"`
}

func canonicalize(opt Options) canonicalOptions {
	return canonicalOptions{
		StreamLayout: splits.StreamLayout,

		PriorMu0:     opt.Prior.Mu0,
		PriorLambda0: opt.Prior.Lambda0,
		PriorAlpha0:  opt.Prior.Alpha0,
		PriorBeta0:   opt.Prior.Beta0,

		Seed:       opt.Seed,
		GaneshRuns: opt.GaneshRuns,

		GaneshUpdates: opt.Ganesh.Updates,

		CoOccurrenceThreshold: opt.CoOccurrenceThreshold,

		ConsensusMaxIter: opt.Consensus.MaxIter,

		TreeUpdates: opt.Module.Tree.Updates,
		TreeBurnin:  opt.Module.Tree.Burnin,

		SplitsNumSplits: opt.Module.Splits.NumSplits,
		SplitsMaxSteps:  opt.Module.Splits.MaxSteps,
		Candidates:      opt.Module.Splits.Candidates,

		Standardize: opt.Standardize,
	}
}

// RunKey returns the key of a learning run: the hex sha256 over the
// dataset's canonical bytes (shape, names, IEEE-754 value bits) and the
// canonicalized result-affecting options (which carry the seed). Keys are
// stable across processes and builds of the same stream layout.
func RunKey(d *dataset.Data, opt Options) string {
	key := runDigest(d, opt)
	return hex.EncodeToString(key[:])
}

// digest is a run key as its raw sha256 digest, the form every checkpoint
// carries.
type digest = [sha256.Size]byte

// runDigest is RunKey before its hex encoding.
func runDigest(d *dataset.Data, opt Options) digest {
	h := sha256.New()
	hashDataset(h, d)
	// The canonical struct has a fixed field order, so encoding/json gives
	// deterministic bytes.
	cb, err := json.Marshal(canonicalize(opt))
	if err != nil {
		panic("core: canonical options not marshalable: " + err.Error())
	}
	h.Write(cb)
	return digest(h.Sum(nil))
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
