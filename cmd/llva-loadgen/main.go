// llva-loadgen drives a running llva-serve with many concurrent
// sessions and reports throughput and latency percentiles.
//
// Usage:
//
//	llva-loadgen -addr URL [-src FILE] [-module NAME] [-sessions N]
//	             [-total N | -duration D] [-gas N] [-tenant T] [-json FILE]
//
// It uploads the program source via /api/v1/load (unless -module names
// one already loaded), then opens -sessions concurrent clients issuing
// synchronous runs until -total runs complete or -duration elapses.
// The report (completed, shed, out-of-gas, 5xx, p50/p99 latency,
// sessions/sec) prints to stdout and, with -json, lands in a bench
// JSON archive.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"llva/internal/serve"
)

// defaultProg is a small self-checking workload: enough arithmetic to
// exercise the translator, quick enough to push session throughput.
const defaultProg = `
int work(int n) {
	int i, acc = 0;
	for (i = 0; i < n; i++) acc += i * i;
	return acc;
}
int main() {
	print_int(work(100)); print_nl();
	return 0;
}
`

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "llva-loadgen:", err)
	os.Exit(1)
}

func main() {
	addr := flag.String("addr", "http://127.0.0.1:8080", "base URL of the llva-serve instance")
	src := flag.String("src", "", "C-subset source file to upload and drive (default: built-in workload)")
	module := flag.String("module", "loadgen", "module name to register the source under")
	entry := flag.String("entry", "main", "entry symbol")
	sessions := flag.Int("sessions", 10000, "concurrent client sessions")
	total := flag.Int("total", 0, "total runs to attempt (0: run for -duration)")
	duration := flag.Duration("duration", 0, "stop after this long (0: run until -total)")
	gas := flag.Uint64("gas", 0, "per-run gas budget forwarded to the server (0: server default)")
	tenant := flag.String("tenant", "", "tenant label on every request")
	jsonOut := flag.String("json", "", "append the report as a JSON document to FILE")
	flag.Parse()
	if *total == 0 && *duration == 0 {
		*total = 10 * *sessions
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	source := defaultProg
	if *src != "" {
		data, err := os.ReadFile(*src)
		if err != nil {
			fatal(err)
		}
		source = string(data)
	}
	client := serve.NewClient(*addr)
	if _, err := client.Load(ctx, serve.LoadRequest{Name: *module, Source: source}); err != nil {
		fatal(fmt.Errorf("load: %w", err))
	}

	fmt.Fprintf(os.Stderr, "llva-loadgen: %d sessions against %s ...\n", *sessions, *addr)
	rep, err := serve.RunLoadGen(ctx, serve.LoadGenConfig{
		Base:     *addr,
		Module:   *module,
		Entry:    *entry,
		Sessions: *sessions,
		Total:    *total,
		Duration: *duration,
		Gas:      *gas,
		Tenant:   *tenant,
	})
	if err != nil {
		fatal(err)
	}

	fmt.Printf("sessions            %d\n", rep.Sessions)
	fmt.Printf("attempted           %d\n", rep.Attempted)
	fmt.Printf("completed           %d\n", rep.Completed)
	fmt.Printf("out-of-gas          %d\n", rep.OutOfGas)
	fmt.Printf("shed                %d\n", rep.Shed)
	fmt.Printf("rate-limited        %d\n", rep.RateLimited)
	fmt.Printf("canceled            %d\n", rep.Canceled)
	fmt.Printf("errors (5xx/other)  %d/%d\n", rep.Errors5xx, rep.OtherErrors)
	fmt.Printf("wall                %.2fs\n", rep.WallSeconds)
	fmt.Printf("sessions/sec        %.0f\n", rep.SessionsPerSec)
	fmt.Printf("latency p50/p99/max %v / %v / %v\n",
		time.Duration(rep.P50LatencyNS), time.Duration(rep.P99LatencyNS), time.Duration(rep.MaxLatencyNS))
	fmt.Printf("queue   p50/p99     %v / %v\n",
		time.Duration(rep.QueueP50NS), time.Duration(rep.QueueP99NS))
	fmt.Printf("exec    p50/p99     %v / %v\n",
		time.Duration(rep.ExecP50NS), time.Duration(rep.ExecP99NS))
	fmt.Printf("pool reuse/cold     %d/%d\n", rep.SessionReuse, rep.SessionCold)

	if *jsonOut != "" {
		doc := struct {
			Date   string              `json:"date"`
			Kind   string              `json:"kind"`
			Addr   string              `json:"addr"`
			Module string              `json:"module"`
			Gas    uint64              `json:"gas"`
			Report serve.LoadGenReport `json:"report"`
		}{
			Date:   time.Now().UTC().Format(time.RFC3339),
			Kind:   "llva-loadgen",
			Addr:   *addr,
			Module: *module,
			Gas:    *gas,
			Report: rep,
		}
		data, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*jsonOut, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "llva-loadgen: report written to %s\n", *jsonOut)
	}

	if rep.Errors5xx > 0 {
		os.Exit(1)
	}
}
