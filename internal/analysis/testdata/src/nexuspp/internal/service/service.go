// Fixture for the scopedkey analyzer, placed at the real service path so
// the analyzer's package-path scoping applies: client keys must be
// submitted through a starss.Scope, never to the shared Runtime directly.
package service

import (
	"context"

	"nexuspp/internal/starss"
)

type server struct {
	rt    *starss.Runtime
	scope *starss.Scope
}

func (s *server) submitRaw(ctx context.Context, t starss.Task) error {
	_, err := s.rt.Submit(ctx, t) // want "client keys land in the shared Runtime's own namespace via Runtime.Submit"
	return err
}

func (s *server) submitBatchRaw(ctx context.Context, ts []starss.Task) error {
	_, err := s.rt.SubmitAll(ctx, ts) // want "client keys land in the shared Runtime's own namespace via Runtime.SubmitAll"
	return err
}

// An address dependency is no safer: without a scope it is address 0x40 of
// namespace 0 for every tenant.
func (s *server) submitAddrRaw(ctx context.Context) {
	s.rt.MustSubmit(starss.Task{Deps: []starss.Dep{starss.Addr(0x40, starss.ModeInOut)}}) // want "client keys land in the shared Runtime's own namespace via Runtime.MustSubmit"
}

func (s *server) waitRaw(ctx context.Context, k starss.Key) error {
	return s.rt.WaitOn(ctx, k) // want "client keys land in the shared Runtime's own namespace via Runtime.WaitOn"
}

// The sanctioned detour: the session's scope is the keys' namespace.
func (s *server) submitScoped(ctx context.Context, t starss.Task) error {
	_, err := s.scope.Submit(ctx, t)
	return err
}

func (s *server) waitScoped(ctx context.Context, k starss.Key) error {
	return s.scope.WaitOn(ctx, k)
}

// Keyless lifecycle methods never carry tenant keys and stay allowed.
func (s *server) shutdown(ctx context.Context) error {
	if err := s.rt.Wait(ctx); err != nil {
		return err
	}
	return s.rt.Close()
}
