package backend

// The five engine adapters. Three are simulated (they run on the
// discrete-event kernel and report simulated makespans): the Nexus++ model,
// the original-Nexus configuration of the same model, and the software-RTS
// model. Two execute for real (they run synthesized Go closures on worker
// goroutines and report wall time): the sharded runtime and its
// single-maestro baseline, both fed through the starss.Replay adapter.

import (
	"context"
	"fmt"

	"nexuspp/internal/core"
	"nexuspp/internal/nexus1"
	"nexuspp/internal/softrts"
	"nexuspp/internal/starss"
	"nexuspp/internal/workload"
)

// backends is the registry, sorted by name.
var backends = []Backend{
	replayBackend{
		name:    "maestro",
		desc:    "executing single-resolver baseline runtime (every submit/finish funnels through one goroutine)",
		maestro: true,
	},
	simBackend{
		name: "nexus",
		desc: "original-Nexus simulator (hard 5-param/kick-off limits, no double buffering; may reject workloads)",
		conf: nexus1.Config,
	},
	simBackend{
		name: "nexuspp",
		desc: "Nexus++ hardware task-management simulator (the paper's SSIII model, Table IV defaults)",
		conf: core.DefaultConfig,
	},
	replayBackend{
		name: "runtime",
		desc: "executing sharded StarSs runtime replaying the trace with synthesized Go task bodies",
	},
	softrtsBackend{},
}

// simBackend adapts the shared hardware model (package core) under a
// configuration preset: the Nexus++ defaults or the original-Nexus limits.
type simBackend struct {
	name string
	desc string
	conf func(workers int) core.Config
}

func (b simBackend) Name() string     { return b.name }
func (b simBackend) Describe() string { return b.desc }

func (b simBackend) Run(ctx context.Context, cfg Config, src workload.Source) (*Report, error) {
	cfg = cfg.withDefaults()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ccfg := b.conf(cfg.Workers)
	ccfg.RecordSchedule = cfg.RecordSchedule
	res, err := core.Run(ccfg, src)
	if err != nil {
		return nil, fmt.Errorf("backend %s: %w", b.name, err)
	}
	return &Report{
		Backend:       b.name,
		Workload:      res.Workload,
		Workers:       cfg.Workers,
		Simulated:     true,
		Makespan:      res.Makespan,
		TasksExecuted: res.TasksExecuted,
		Detail:        res,
	}, nil
}

// softrtsBackend adapts the software-RTS model.
type softrtsBackend struct{}

func (softrtsBackend) Name() string { return "softrts" }
func (softrtsBackend) Describe() string {
	return "software StarSs runtime model (per-task master-core costs, no task controllers)"
}

func (b softrtsBackend) Run(ctx context.Context, cfg Config, src workload.Source) (*Report, error) {
	cfg = cfg.withDefaults()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	scfg := softrts.DefaultConfig(cfg.Workers)
	scfg.RecordSchedule = cfg.RecordSchedule
	res, err := softrts.Run(scfg, src)
	if err != nil {
		return nil, fmt.Errorf("backend softrts: %w", err)
	}
	return &Report{
		Backend:       b.Name(),
		Workload:      res.Workload,
		Workers:       cfg.Workers,
		Simulated:     true,
		Makespan:      res.Makespan,
		TasksExecuted: res.TasksExecuted,
		Detail:        res,
	}, nil
}

// replayBackend drives a real executing runtime through the replay adapter.
type replayBackend struct {
	name    string
	desc    string
	maestro bool
}

func (b replayBackend) Name() string     { return b.name }
func (b replayBackend) Describe() string { return b.desc }

func (b replayBackend) Run(ctx context.Context, cfg Config, src workload.Source) (*Report, error) {
	cfg = cfg.withDefaults()
	newRuntime := starss.New
	if b.maestro {
		newRuntime = starss.NewMaestro
	}
	rt := newRuntime(starss.Config{Workers: cfg.Workers, Window: 4096})
	res, err := starss.Replay(ctx, rt, src, starss.ReplayOptions{
		ZeroCost:  cfg.ZeroCost,
		TimeScale: cfg.TimeScale,
	})
	cerr := rt.Close()
	if err != nil {
		return nil, fmt.Errorf("backend %s: %w", b.name, err)
	}
	if cerr != nil {
		return nil, fmt.Errorf("backend %s: %w", b.name, cerr)
	}
	if res.Stats.Failed != 0 || res.Stats.Skipped != 0 {
		return nil, fmt.Errorf("backend %s: replay poisoned tasks: %v", b.name, res.Stats)
	}
	return &Report{
		Backend:       b.name,
		Workload:      res.Workload,
		Workers:       cfg.Workers,
		Simulated:     false,
		Wall:          res.Wall,
		TasksExecuted: res.Stats.Executed,
		Detail:        res,
	}, nil
}
