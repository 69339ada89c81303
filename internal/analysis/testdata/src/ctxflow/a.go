// Fixture for the ctxflow analyzer: a function holding a context
// parameter must thread it into the runtime's blocking calls instead of
// substituting context.Background/TODO.
package ctxflow

import (
	"context"

	"nexuspp/internal/starss"
)

func bad(ctx context.Context, rt *starss.Runtime) {
	rt.Wait(context.Background()) // want "Wait called with context.Background"
}

func badTODO(ctx context.Context, rt *starss.Runtime) {
	rt.WaitOn(context.TODO(), 0x40) // want "WaitOn called with context.TODO"
}

// A local derived from Background is caught like the inline form.
func badFresh(ctx context.Context, rt *starss.Runtime) error {
	c := context.Background()
	_, err := rt.Submit(c, starss.Task{}) // want "Submit called with a context derived from context.Background"
	return err
}

// TrySubmitAll never waits, but its ctx is the one the tasks' bodies run
// under: a session's drain cancels exactly that.
func badTry(ctx context.Context, s *starss.Scope, ts []starss.Task) error {
	_, err := s.TrySubmitAll(context.Background(), ts) // want "TrySubmitAll called with context.Background"
	return err
}

func good(ctx context.Context, rt *starss.Runtime) error {
	return rt.Wait(ctx)
}

// No context parameter in scope: Background is the only honest choice.
func noParam(rt *starss.Runtime) {
	rt.Wait(context.Background())
}

// A nested literal with its own context parameter is its own scope...
func nested(ctx context.Context, rt *starss.Runtime) func(context.Context) error {
	return func(inner context.Context) error {
		return rt.Wait(context.Background()) // want "Wait called with context.Background"
	}
}

// ...but a literal without one still sees the outer parameter.
func nestedInherits(ctx context.Context, rt *starss.Runtime) func() error {
	return func() error {
		return rt.Wait(context.Background()) // want "Wait called with context.Background"
	}
}
