package sim

// Job-granular entry points for the fleet simulator (internal/fleet):
// a fleet campaign needs one protected execution per job — seeded by
// the job's own identity, with the job's own pattern count — instead
// of one statistical campaign per configuration. JobSim and MLJobSim
// wrap the campaign executors so a worker can reuse one across all the
// jobs it simulates: construction validates once and builds the
// schedule flattening once; Run only reseeds in place.

import (
	"fmt"

	"respat/internal/multilevel"
)

// JobSim replays single protected executions of one pattern
// configuration. It owns a private copy of the configuration and a
// reusable executor, so repeated Run calls allocate nothing. A JobSim
// is not safe for concurrent use; give each worker its own.
type JobSim struct {
	cfg Config
	ex  *executor
}

// NewJobSim validates the configuration (Runs and Seed are ignored —
// Run supplies per-job seeds) and builds the shared schedule
// flattening. cfg.Patterns only seeds validation; each Run passes its
// own count.
func NewJobSim(cfg Config) (*JobSim, error) {
	cfg.Runs = 1
	if cfg.Patterns == 0 {
		cfg.Patterns = 1
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	j := &JobSim{cfg: cfg}
	j.ex = newExecutor(&j.cfg, newPlan(&j.cfg))
	return j, nil
}

// Run executes patterns instances under the configured pattern with
// every random stream derived from seed alone (stream index 0, like
// run 0 of a campaign with that seed). It returns the event counters
// and the elapsed virtual seconds. The result is a pure function of
// (seed, patterns) and the construction-time configuration, which is
// what makes fleet reductions independent of worker count.
func (j *JobSim) Run(seed uint64, patterns int) (Counters, float64, error) {
	if patterns <= 0 {
		return Counters{}, 0, fmt.Errorf("sim: job patterns = %d, need > 0", patterns)
	}
	j.cfg.Seed = seed
	j.cfg.Patterns = patterns
	j.ex.reset(0)
	cnt, elapsed := j.ex.runAll()
	return cnt, elapsed, nil
}

// Work returns the pattern work length W in seconds, the quantum a job
// of arbitrary work is rounded up to.
func (j *JobSim) Work() float64 { return j.cfg.Pattern.W }

// MLJobSim is JobSim for the multilevel model: single protected
// executions of one multilevel (Params, Spec) configuration.
type MLJobSim struct {
	cfg    MultilevelConfig
	layout multilevel.Layout
	ex     *mlExecutor
}

// NewMLJobSim validates the configuration (Runs and Seed are ignored)
// and builds the boundary layout once.
func NewMLJobSim(cfg MultilevelConfig) (*MLJobSim, error) {
	cfg.Runs = 1
	if cfg.Patterns == 0 {
		cfg.Patterns = 1
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	layout, err := cfg.Params.Layout(cfg.Spec)
	if err != nil {
		return nil, err
	}
	j := &MLJobSim{cfg: cfg, layout: layout}
	j.ex = newMLExecutor(&j.cfg, &j.layout)
	return j, nil
}

// Run executes patterns instances seeded by seed alone, mirroring
// JobSim.Run for the multilevel executor.
func (j *MLJobSim) Run(seed uint64, patterns int) (MultilevelCounters, float64, error) {
	if patterns <= 0 {
		return MultilevelCounters{}, 0, fmt.Errorf("sim: job patterns = %d, need > 0", patterns)
	}
	j.cfg.Seed = seed
	j.cfg.Patterns = patterns
	j.ex.reset(0)
	cnt, elapsed := j.ex.runAll()
	return cnt, elapsed, nil
}

// Work returns the spec's pattern work length W in seconds.
func (j *MLJobSim) Work() float64 { return j.cfg.Spec.W }
