package exp

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/optimizer"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Asset file names for the RemyCCs the experiments use (see DESIGN.md §5).
const (
	AssetRemyDelta01  = "remycc_delta0.1.json"
	AssetRemyDelta1   = "remycc_delta1.json"
	AssetRemyDelta10  = "remycc_delta10.json"
	AssetRemy1x       = "remycc_1x.json"
	AssetRemy10x      = "remycc_10x.json"
	AssetRemyDC       = "remycc_dc.json"
	AssetRemyCompete  = "remycc_compete.json"
	assetsDirName     = "assets"
	assetsEnvOverride = "REPRO_ASSETS_DIR"
)

// FindAssetsDir locates the repository's assets directory: the
// REPRO_ASSETS_DIR environment variable if set, otherwise the "assets"
// directory next to the go.mod found by walking up from the working
// directory. The directory is returned even if it does not exist yet.
func FindAssetsDir() string {
	if env := os.Getenv(assetsEnvOverride); env != "" {
		return env
	}
	dir, err := os.Getwd()
	if err != nil {
		return assetsDirName
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return filepath.Join(dir, assetsDirName)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return assetsDirName
		}
		dir = parent
	}
}

// TrainSpec bundles everything needed to (re)train one of the experiment
// RemyCCs when its asset file is missing.
type TrainSpec struct {
	Config    optimizer.ConfigRange
	Objective stats.Objective
	Rounds    int
	Seed      int64
}

// GeneralPurposeTrainSpec returns the §5.1 design model with the supplied
// delay weight δ. budget scales the per-specimen simulation length and the
// number of specimens; 1.0 reproduces the paper's design budget (100-second
// specimens, 16 specimens), smaller values train faster, lower-fidelity
// tables for tests and on-the-fly fallbacks.
func GeneralPurposeTrainSpec(delta float64, budget float64) TrainSpec {
	cfg := optimizer.DumbbellDesignRange()
	scaleConfig(&cfg, budget)
	return TrainSpec{Config: cfg, Objective: stats.DefaultObjective(delta), Rounds: 8, Seed: 1}
}

// LinkSpeedTrainSpec returns the §5.7 design models (1x: lo == hi == 15 Mbps,
// 10x: 4.7–47 Mbps).
func LinkSpeedTrainSpec(lo, hi float64, budget float64) TrainSpec {
	cfg := optimizer.LinkSpeedDesignRange(lo, hi)
	scaleConfig(&cfg, budget)
	return TrainSpec{Config: cfg, Objective: stats.DefaultObjective(1), Rounds: 8, Seed: 2}
}

// DatacenterTrainSpec returns the §5.5 design model (α = 2, δ = 0, i.e.
// minimum potential delay).
func DatacenterTrainSpec(budget float64) TrainSpec {
	cfg := optimizer.DatacenterDesignRange()
	// The datacenter model is already short; scale only the specimen count.
	if budget < 1 {
		cfg.Specimens = max(2, int(float64(cfg.Specimens)*budget))
		cfg.MaxSenders = max(4, int(float64(cfg.MaxSenders)*budget))
		cfg.SpecimenDuration = scaleDuration(cfg.SpecimenDuration, budget, 500*sim.Millisecond)
	}
	return TrainSpec{Config: cfg, Objective: stats.MinPotentialDelayObjective(), Rounds: 6, Seed: 3}
}

// CompetingTrainSpec returns the §5.6 design model: RTTs from 100 ms to 10 s
// so the RemyCC can tolerate a buffer-filling competitor on the same link.
func CompetingTrainSpec(budget float64) TrainSpec {
	cfg := optimizer.DumbbellDesignRange()
	cfg.MinSenders = 2
	cfg.MaxSenders = 2
	cfg.RTTMs = optimizer.Range{Lo: 100, Hi: 10000}
	cfg.LinkRateBps = optimizer.Range{Lo: 15e6, Hi: 15e6}
	cfg.OnMode = workload.ByBytes
	cfg.MeanOnBytes = 100e3
	cfg.MeanOffSecs = 0.5
	scaleConfig(&cfg, budget)
	return TrainSpec{Config: cfg, Objective: stats.DefaultObjective(1), Rounds: 6, Seed: 4}
}

func scaleConfig(cfg *optimizer.ConfigRange, budget float64) {
	if budget >= 1 || budget <= 0 {
		return
	}
	cfg.SpecimenDuration = scaleDuration(cfg.SpecimenDuration, budget, 2*sim.Second)
	cfg.Specimens = max(2, int(float64(cfg.Specimens)*budget))
	if cfg.MaxSenders > 8 {
		cfg.MaxSenders = max(cfg.MinSenders, 8)
	}
}

func scaleDuration(d sim.Time, budget float64, floor sim.Time) sim.Time {
	return max(sim.Time(float64(d)*budget), floor)
}

// LoadOrTrainRemyCC returns the RemyCC stored at assetsDir/name, or — if the
// file is missing — trains a replacement with the supplied spec, saves it
// (best effort) and returns it. This keeps the experiments runnable from a
// fresh checkout even without the pre-trained assets, at reduced fidelity.
func LoadOrTrainRemyCC(assetsDir, name string, spec TrainSpec, logf func(string, ...any)) (*core.WhiskerTree, error) {
	path := filepath.Join(assetsDir, name)
	if tree, err := core.LoadFile(path); err == nil {
		return tree, nil
	}
	if logf != nil {
		logf("asset %s missing; training a replacement RemyCC (reduced budget)", path)
	}
	r := optimizer.New(spec.Config, spec.Objective)
	r.Seed = spec.Seed
	r.Logf = logf
	rounds := spec.Rounds
	if rounds < 1 {
		rounds = 1
	}
	tree, _, err := r.Optimize(nil, rounds)
	if err != nil {
		return nil, fmt.Errorf("exp: training %s: %w", name, err)
	}
	if err := os.MkdirAll(assetsDir, 0o755); err == nil {
		if err := tree.SaveFile(path); err != nil && logf != nil {
			logf("could not save trained RemyCC to %s: %v", path, err)
		}
	}
	return tree, nil
}
