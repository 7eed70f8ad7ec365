package data

// Workload names a synthetic stand-in for one of the paper's datasets
// (Table 2 plus the deep-learning and Section 7.4 datasets). Each workload
// preserves the shape that matters for the experiments — dense/sparse,
// dimensionality, relative size — at a tuple count scaled down by Scale so
// the full evaluation runs in seconds of wall time.
type Workload struct {
	// Name is the paper's dataset name with a "-like" suffix.
	Name string
	// Base is the generator configuration at scale 1.
	Base SyntheticConfig
	// Kind selects the generator: "binary", "multiclass", or "regression".
	Kind string
}

// Workloads lists the synthetic stand-ins keyed by the paper's dataset name.
var Workloads = map[string]Workload{
	// Generalized linear model datasets (Table 2).
	"higgs": {Name: "higgs-like", Kind: "binary", Base: SyntheticConfig{
		Tuples: 20000, Features: 28, Separation: 1.0, Noise: 1.5, Seed: 101}},
	"susy": {Name: "susy-like", Kind: "binary", Base: SyntheticConfig{
		Tuples: 10000, Features: 18, Separation: 1.4, Noise: 1.5, Seed: 102}},
	"epsilon": {Name: "epsilon-like", Kind: "binary", Base: SyntheticConfig{
		Tuples: 1000, Features: 2000, Separation: 1.1, Noise: 1.0, Seed: 103}},
	"criteo": {Name: "criteo-like", Kind: "binary", Base: SyntheticConfig{
		Tuples: 40000, Features: 10000, Sparse: true, NNZ: 40,
		Separation: 8, Noise: 1.0, Seed: 104}},
	"yfcc": {Name: "yfcc-like", Kind: "binary", Base: SyntheticConfig{
		Tuples: 2000, Features: 4096, Separation: 1.8, Noise: 1.0, Seed: 105}},

	// Deep-learning datasets: image-like dense multi-class and text-like
	// sparse multi-class. The MLP model consumes these.
	"cifar10": {Name: "cifar10-like", Kind: "multiclass", Base: SyntheticConfig{
		Tuples: 5000, Features: 64, Classes: 10, Separation: 3.0, Noise: 1.0, Seed: 106}},
	"imagenet": {Name: "imagenet-like", Kind: "multiclass", Base: SyntheticConfig{
		Tuples: 20000, Features: 128, Classes: 100, Separation: 5.0, Noise: 1.0, Seed: 107}},
	"yelp": {Name: "yelp-like", Kind: "multiclass", Base: SyntheticConfig{
		Tuples: 8000, Features: 5000, Classes: 5, Sparse: true, NNZ: 60,
		Separation: 8, Noise: 1.0, Seed: 108}},

	// Section 7.4 datasets.
	"yearpred": {Name: "yearpred-like", Kind: "regression", Base: SyntheticConfig{
		Tuples: 10000, Features: 90, Noise: 3.0, Seed: 109}},
	"mini8m": {Name: "mini8m-like", Kind: "multiclass", Base: SyntheticConfig{
		Tuples: 10000, Features: 784, Classes: 10, Separation: 2.0, Noise: 1.0, Seed: 110}},
}

// GLMDatasets lists, in the paper's order, the five datasets used for the
// in-DB GLM experiments (Figures 11–13, Table 3).
var GLMDatasets = []string{"higgs", "susy", "epsilon", "criteo", "yfcc"}

// Generate materializes the named workload at the given scale and tuple
// order, from the workload's own generator seed. Scale multiplies the tuple
// count (use <1 for quick tests). It panics on unknown names, which
// indicates a programming error in the benchmark registry.
func Generate(name string, scale float64, order Order) *Dataset {
	return GenerateSeed(name, scale, order, Workloads[name].Base.Seed)
}

// GenerateSeed is Generate with an explicit generator seed: equal seeds
// give identical datasets.
func GenerateSeed(name string, scale float64, order Order, seed int64) *Dataset {
	w, ok := Workloads[name]
	if !ok {
		panic("data: unknown workload " + name)
	}
	cfg := w.Base
	cfg.Name = w.Name
	cfg.Order = order
	cfg.Seed = seed
	cfg.Tuples = int(float64(cfg.Tuples) * scale)
	if cfg.Tuples < 50 {
		cfg.Tuples = 50
	}
	switch w.Kind {
	case "binary":
		return SyntheticBinary(cfg)
	case "multiclass":
		return SyntheticMulticlass(cfg)
	case "regression":
		return SyntheticRegression(cfg)
	}
	panic("data: unknown workload kind " + w.Kind)
}
