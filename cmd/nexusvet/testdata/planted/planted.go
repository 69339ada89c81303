// Package planted is the vet tool's positive control: it drops a task's
// handle and the runtime's Close error, so a failing body would vanish —
// what handleleak exists to stop. main_test.go vets it and expects findings.
package planted

import (
	"context"
	"errors"

	"nexuspp/internal/starss"
)

func fireAndForget(rt *starss.Runtime) {
	rt.MustSubmit(starss.Task{Do: func(context.Context) error { return errors.New("lost") }})
	rt.Close()
}
