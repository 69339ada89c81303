package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"nexuspp/internal/backend"
	"nexuspp/internal/obs"
	"nexuspp/internal/starss"
)

// traceCmd replays one workload on the instrumented executing runtime and
// writes the drained lifecycle event log as Chrome trace-viewer JSON
// (loadable in chrome://tracing and ui.perfetto.dev). The sharded runtime is
// the one backend that emits events, so there is none to choose.
func traceCmd(args []string) int {
	fs := flag.NewFlagSet("nexusbench trace", flag.ExitOnError)
	var (
		workName  = fs.String("workload", "wavefront", "workload name (see 'nexusbench list')")
		out       = fs.String("o", "trace.json", "output path for the Chrome trace")
		workers   = fs.Int("workers", 4, "worker goroutines")
		seed      = fs.Uint64("seed", 42, "trace generator seed")
		zerocost  = fs.Bool("zerocost", false, "empty task bodies (pure resolver throughput)")
		timescale = fs.Int("timescale", 100, "divide synthesized body durations (1 = traced timing)")
		buffer    = fs.Int("buffer", 1<<16, "per-worker event ring capacity")
		verify    = fs.Bool("verify", false, "re-parse the written file and fail on invalid JSON (CI smoke)")
	)
	fs.Parse(args)
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "nexusbench trace: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	wl, err := backend.LookupWorkload(*workName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "nexusbench trace: %v\n", err)
		return 2
	}

	rt := starss.New(starss.Config{
		Workers:      *workers,
		EventBuffer:  *buffer,
		BankCounters: true,
	})
	res, err := starss.Replay(context.Background(), rt, wl.New(*seed), starss.ReplayOptions{
		ZeroCost:  *zerocost,
		TimeScale: *timescale,
	})
	if err != nil {
		_ = rt.Close()
		fmt.Fprintf(os.Stderr, "nexusbench trace: replay: %v\n", err)
		return 1
	}
	if err := rt.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "nexusbench trace: close: %v\n", err)
		return 1
	}

	rec := rt.Events()
	events := rec.Drain()
	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, events); err != nil {
		fmt.Fprintf(os.Stderr, "nexusbench trace: export: %v\n", err)
		return 1
	}
	if err := os.WriteFile(*out, buf.Bytes(), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "nexusbench trace: %v\n", err)
		return 1
	}
	if *verify {
		written, err := os.ReadFile(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "nexusbench trace: verify: %v\n", err)
			return 1
		}
		var doc struct {
			TraceEvents []json.RawMessage `json:"traceEvents"`
		}
		if err := json.Unmarshal(written, &doc); err != nil {
			fmt.Fprintf(os.Stderr, "nexusbench trace: verify: %s is not valid JSON: %v\n", *out, err)
			return 1
		}
		if len(doc.TraceEvents) == 0 {
			fmt.Fprintf(os.Stderr, "nexusbench trace: verify: %s has no trace events\n", *out)
			return 1
		}
		fmt.Printf("verified: %d trace events parse\n", len(doc.TraceEvents))
	}
	st := res.Stats
	fmt.Printf("traced %s on runtime: %d tasks in %v, %d events (%d dropped), bank acq=%d contended=%d max-queue=%d\n",
		wl.Name, st.Submitted, res.Wall.Round(time.Microsecond), len(events), rec.Dropped(),
		st.BankAcquisitions, st.BankContended, st.BankMaxQueue)
	if rec.Dropped() > 0 {
		fmt.Fprintf(os.Stderr, "nexusbench trace: warning: %d events dropped; raise -buffer for a complete timeline\n", rec.Dropped())
	}
	fmt.Printf("wrote %s (%d bytes) — load in chrome://tracing or ui.perfetto.dev\n", *out, buf.Len())
	return 0
}
