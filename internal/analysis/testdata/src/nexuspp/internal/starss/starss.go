// Package starss is a type-level stub of the real runtime for analyzer
// fixtures: package path, type names, method sets and signatures match
// nexuspp/internal/starss (the analyzers dispatch on all four), bodies
// are empty.
package starss

import (
	"context"

	"nexuspp/internal/obs"
)

type Mode uint8

const (
	ModeIn Mode = iota
	ModeOut
	ModeInOut
)

type Dep struct {
	Addr uint64
	Mode Mode
}

func In(addr uint64) Dep    { return Dep{addr, ModeIn} }
func Out(addr uint64) Dep   { return Dep{addr, ModeOut} }
func InOut(addr uint64) Dep { return Dep{addr, ModeInOut} }

type Task struct {
	Name string
	Deps []Dep
	Do   func(context.Context) error
}

type Outcome uint8

const (
	Pending Outcome = iota
	Executed
	Failed
	Skipped
)

type Handle struct{ name string }

func (h *Handle) Name() string                   { return h.name }
func (h *Handle) Err() error                     { return nil }
func (h *Handle) Done() <-chan struct{}          { return nil }
func (h *Handle) Wait(ctx context.Context) error { return nil }
func (h *Handle) Outcome() Outcome               { return Pending }

type Config struct{ Workers int }

type Runtime struct{ closed bool }

func New(cfg Config) *Runtime { return &Runtime{} }

func (rt *Runtime) Submit(ctx context.Context, t Task) (*Handle, error)            { return nil, nil }
func (rt *Runtime) SubmitAll(ctx context.Context, tasks []Task) ([]*Handle, error) { return nil, nil }
func (rt *Runtime) MustSubmit(t Task) *Handle                                      { return nil }
func (rt *Runtime) Wait(ctx context.Context) error                                 { return nil }
func (rt *Runtime) WaitOn(ctx context.Context, addrs ...uint64) error              { return nil }
func (rt *Runtime) Close() error                                                   { return nil }
func (rt *Runtime) Scope(name string) *Scope                                       { return nil }
func (rt *Runtime) Events() *obs.Recorder                                          { return nil }

type Scope struct{ rt *Runtime }

func (s *Scope) Submit(ctx context.Context, t Task) (*Handle, error)               { return nil, nil }
func (s *Scope) SubmitAll(ctx context.Context, tasks []Task) ([]*Handle, error)    { return nil, nil }
func (s *Scope) TrySubmitAll(ctx context.Context, tasks []Task) ([]*Handle, error) { return nil, nil }
func (s *Scope) WaitOn(ctx context.Context, addrs ...uint64) error                 { return nil }
