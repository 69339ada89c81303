package main

import (
	"bytes"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestVetToolExitCode drives the built tool through `go vet -vettool=`, the
// way make lint does: the exit code is the whole gate, so a planted dropped
// handle must fail it and the real runtime must pass it.
func TestVetToolExitCode(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go not on PATH")
	}
	tool := filepath.Join(t.TempDir(), "nexusvet")
	if out, err := exec.Command(goTool, "build", "-o", tool, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	vet := func(pkg string) (string, error) {
		var stderr bytes.Buffer
		cmd := exec.Command(goTool, "vet", "-vettool="+tool, pkg)
		cmd.Stderr = &stderr
		err := cmd.Run()
		return stderr.String(), err
	}

	stderr, err := vet("./testdata/planted")
	if err == nil {
		t.Errorf("vet of the planted package exited 0; want findings\n%s", stderr)
	}
	if !strings.Contains(stderr, "[handleleak]") {
		t.Errorf("vet of the planted package reported no [handleleak] finding:\n%s", stderr)
	}

	if stderr, err := vet("nexuspp/internal/starss"); err != nil {
		t.Errorf("vet of internal/starss: %v\n%s", err, stderr)
	}
}
