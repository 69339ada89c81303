package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"nexuspp/internal/obs"
	"nexuspp/internal/service"
)

// serveCmd is the end-to-end service smoke: several concurrent clients each
// open a session against a nexusd daemon, push overlapping-address task
// graphs through it (riding out 429 backpressure), await completion, and
// verify their per-session accounting. With -addr it targets a running
// daemon (the CI path); without, it spins up an in-process server on a
// loopback port so the smoke is self-contained. -clients and -tasks size
// the run; the shape of the graphs is fixed.
func serveCmd(args []string) int {
	const (
		batch  = 64  // tasks per submit request
		keys   = 32  // distinct addresses per client, shared across clients
		execUS = 0   // synthesized body duration per task, microseconds
		window = 128 // in-process server: per-session admission window
	)
	fs := flag.NewFlagSet("nexusbench serve", flag.ExitOnError)
	var (
		addr    = fs.String("addr", "", "daemon base URL (e.g. http://127.0.0.1:8037); empty starts an in-process server")
		clients = fs.Int("clients", 2, "concurrent client sessions")
		tasks   = fs.Int("tasks", 500, "tasks per client")
	)
	fs.Parse(args)
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "nexusbench serve: unexpected argument %q\n", fs.Arg(0))
		return 2
	}

	base := *addr
	if base == "" {
		srv := service.New(service.Config{SessionWindow: window})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fmt.Fprintf(os.Stderr, "nexusbench serve: %v\n", err)
			return 1
		}
		hs := &http.Server{Handler: srv.Handler()}
		go hs.Serve(ln)
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			hs.Shutdown(ctx)
			if err := srv.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "daemon close: %v\n", err)
			}
		}()
		base = "http://" + ln.Addr().String()
		fmt.Printf("in-process daemon on %s\n", base)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	client := service.NewClient(base)
	if !client.Healthy(ctx) {
		fmt.Fprintf(os.Stderr, "nexusbench serve: daemon at %s is not healthy\n", base)
		return 1
	}

	type result struct {
		client  int
		retries int
		elapsed time.Duration
		err     error
	}
	results := make([]result, *clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < *clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			results[c] = result{client: c}
			r := &results[c]
			t0 := time.Now()
			r.err = func() error {
				s, err := client.Open(ctx)
				if err != nil {
					return fmt.Errorf("open: %w", err)
				}
				// Every task outcome is checked via Await below; session
				// teardown is best-effort.
				defer func() { _ = s.Close(context.Background()) }()
				for sent := 0; sent < *tasks; {
					n := batch
					if rem := *tasks - sent; n > rem {
						n = rem
					}
					specs := make([]service.TaskSpec, n)
					for i := range specs {
						// Every client uses the same address set: maximal
						// cross-session key overlap, zero cross-session
						// dependencies if isolation holds.
						mode := [...]string{"in", "inout", "out"}[(sent+i)%3]
						specs[i] = service.TaskSpec{
							Params: []service.Param{{Addr: uint64((sent + i) % keys), Size: 64, Mode: mode}},
							ExecUS: execUS,
						}
					}
					_, retries, err := s.SubmitWait(ctx, specs)
					if err != nil {
						return fmt.Errorf("submit after %d tasks: %w", sent, err)
					}
					r.retries += retries
					sent += n
				}
				statuses, err := s.Await(ctx, nil)
				if err != nil {
					return fmt.Errorf("await: %w", err)
				}
				for _, st := range statuses {
					if st.State != service.StateOK {
						return fmt.Errorf("task %d finished %s: %s", st.ID, st.State, st.Error)
					}
				}
				stats, err := s.Stats(ctx)
				if err != nil {
					return fmt.Errorf("stats: %w", err)
				}
				if stats.Executed != uint64(*tasks) || stats.InFlight != 0 {
					return fmt.Errorf("session accounting: executed=%d in_flight=%d, want %d/0",
						stats.Executed, stats.InFlight, *tasks)
				}
				return nil
			}()
			r.elapsed = time.Since(t0)
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)

	exit := 0
	for _, r := range results {
		status := "ok"
		if r.err != nil {
			status = r.err.Error()
			exit = 1
		}
		fmt.Printf("client %d: %4d tasks  %8v  %3d backpressure retries  %s\n",
			r.client, *tasks, r.elapsed.Round(time.Millisecond), r.retries, status)
	}
	if dbg, err := client.Debug(ctx); err == nil {
		fmt.Printf("server: sessions=%d submitted=%d executed=%d failed=%d skipped=%d in_flight=%d goroutines=%d bank-acq=%d bank-contended=%d\n",
			dbg.Sessions, dbg.Runtime.Submitted, dbg.Runtime.Executed, dbg.Runtime.Failed,
			dbg.Runtime.Skipped, dbg.Runtime.InFlight, dbg.Goroutines,
			dbg.Runtime.BankAcquisitions, dbg.Runtime.BankContended)
	} else {
		fmt.Fprintf(os.Stderr, "nexusbench serve: debug: %v\n", err)
		exit = 1
	}
	// The smoke also gates the metrics endpoint: the body must be valid
	// Prometheus text exposition and carry the bank-contention counters.
	if body, err := client.Metrics(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "nexusbench serve: metrics: %v\n", err)
		exit = 1
	} else if n, err := obs.ValidatePrometheus(body); err != nil {
		fmt.Fprintf(os.Stderr, "nexusbench serve: metrics: malformed exposition: %v\n", err)
		exit = 1
	} else if !strings.Contains(body, "nexuspp_bank_acquisitions_total") {
		fmt.Fprintf(os.Stderr, "nexusbench serve: metrics: bank-contention counters missing\n")
		exit = 1
	} else {
		fmt.Printf("metrics: %d samples, exposition valid\n", n)
	}
	total := uint64(*clients) * uint64(*tasks)
	fmt.Printf("total: %d tasks across %d sessions in %v (%.0f tasks/s)\n",
		total, *clients, wall.Round(time.Millisecond), float64(total)/wall.Seconds())
	if exit == 0 {
		fmt.Println("serve smoke: PASS")
	} else {
		fmt.Println("serve smoke: FAIL")
	}
	return exit
}
