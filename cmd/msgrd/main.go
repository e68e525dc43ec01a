// msgrd runs a MESSENGERS daemon network whose daemons communicate over
// real TCP sockets — the paper's "daemons instantiated on all physical
// nodes". It has two modes:
//
// Classic injection (the original behavior): compile one MSL script, inject
// it, wait for quiescence:
//
//	msgrd -n 4 -inject prog.msl
//	msgrd -n 3 -addrs 127.0.0.1:7001,127.0.0.1:7002,127.0.0.1:7003 -inject prog.msl
//
// Service mode (-serve): run the daemon network as a long-lived multi-tenant
// service. Untrusted tenants submit MSL over HTTP; every program passes the
// bytecode verifier before execution, and per-tenant quotas (instruction
// budgets, state caps, hop-rate and admission token buckets) are enforced
// with explicit backpressure:
//
//	msgrd -n 4 -serve -http 127.0.0.1:8080 -tenants tenants.json
//
// tenants.json is a JSON array of tenant configs:
//
//	[{"id": "acme", "step_budget": 200000, "mem_budget": 65536,
//	  "hop_rate": 500, "inject_rate": 50, "max_queue": 64, "max_live": 32}]
//
// In both modes SIGINT/SIGTERM triggers a graceful drain: no new work is
// admitted, in-flight Messengers run to completion, then the process exits.
// A second signal forces immediate exit.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"messengers"
	"messengers/internal/compile"
	"messengers/internal/serve"
)

func main() {
	n := flag.Int("n", 4, "daemon count")
	addrsFlag := flag.String("addrs", "", "comma-separated listen addresses (default ephemeral loopback)")
	inject := flag.String("inject", "", "MSL script to inject into daemon 0 (classic mode)")
	at := flag.Int("at", 0, "daemon to inject into (classic mode)")
	serveMode := flag.Bool("serve", false, "run as a multi-tenant service")
	httpAddr := flag.String("http", "127.0.0.1:8080", "service HTTP listen address (-serve)")
	tenantsPath := flag.String("tenants", "", "tenant config JSON file (-serve); default one unlimited tenant \"default\"")
	recovery := flag.Bool("recover", false, "enable messenger-level recovery")
	retain := flag.Int("retain", 1024, "acknowledged-snapshot retention budget per daemon (with -recover)")
	flag.Parse()

	if *serveMode == (*inject != "") {
		fmt.Fprintln(os.Stderr, "msgrd: need exactly one of -inject script.msl or -serve")
		os.Exit(2)
	}
	var addrs []string
	if *addrsFlag != "" {
		addrs = strings.Split(*addrsFlag, ",")
	}
	sys, err := messengers.NewTCPSystem(messengers.Config{
		Daemons:        *n,
		Output:         os.Stdout,
		Recovery:       *recovery,
		RecoveryRetain: *retain,
	}, addrs)
	if err != nil {
		fatal(err)
	}
	defer sys.Close()
	for i, a := range sys.Addrs() {
		fmt.Printf("daemon %d listening on %s\n", i, a)
	}

	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)

	if *serveMode {
		runService(sys, *httpAddr, *tenantsPath, sigs)
		return
	}
	runClassic(sys, *inject, *at, sigs)
}

// runClassic injects one script and waits for quiescence. A signal during
// the wait just keeps waiting (the drain is the computation finishing); a
// second signal forces exit.
func runClassic(sys *messengers.System, inject string, at int, sigs <-chan os.Signal) {
	src, err := os.ReadFile(inject)
	if err != nil {
		fatal(err)
	}
	name := strings.TrimSuffix(filepath.Base(inject), filepath.Ext(inject))
	prog, err := compile.Compile(name, string(src))
	if err != nil {
		fatal(err)
	}
	sys.Register(prog)
	if err := sys.Inject(at, name, nil); err != nil {
		fatal(err)
	}
	done := make(chan struct{})
	go func() { sys.Wait(); close(done) }()
	select {
	case <-done:
	case <-sigs:
		fmt.Fprintln(os.Stderr, "msgrd: draining — waiting for the computation to quiesce (signal again to force exit)")
		select {
		case <-done:
		case <-sigs:
			os.Exit(130)
		}
	}
	for _, err := range sys.Errors() {
		fmt.Fprintf(os.Stderr, "msgrd: %v\n", err)
	}
	if len(sys.Errors()) > 0 {
		os.Exit(1)
	}
	fmt.Println("computation quiescent")
}

// runService runs the admission front end until a signal drains it.
func runService(sys *messengers.System, httpAddr, tenantsPath string, sigs <-chan os.Signal) {
	tenants, err := loadTenants(tenantsPath)
	if err != nil {
		fatal(err)
	}
	srv, err := serve.New(sys.System, serve.Config{Tenants: tenants})
	if err != nil {
		fatal(err)
	}
	// A submit is one small JSON body and one small reply: a client that
	// dribbles its header or body, or parks an idle connection, is cut off.
	hs := &http.Server{
		Addr:              httpAddr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	httpErr := make(chan error, 1)
	go func() { httpErr <- hs.ListenAndServe() }()
	fmt.Printf("serving tenants on http://%s (POST /v1/submit, GET /v1/stats)\n", httpAddr)

	select {
	case err := <-httpErr:
		fatal(err)
	case <-sigs:
	}
	fmt.Fprintln(os.Stderr, "msgrd: draining — rejecting new submissions, waiting for live sessions (signal again to force exit)")
	srv.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	_ = hs.Shutdown(ctx)
	cancel()
	idle := make(chan struct{})
	go func() { srv.WaitIdle(); close(idle) }()
	select {
	case <-idle:
	case <-sigs:
		os.Exit(130)
	}
	for _, ts := range srv.Stats() {
		fmt.Printf("tenant %-12s admitted=%d completed=%d evicted=%d rejected=%d steps=%d hops=%d violations=%d\n",
			ts.ID, ts.Admitted, ts.Completed, ts.Evicted, ts.Rejected, ts.Steps, ts.Hops, ts.Violations)
	}
	fmt.Println("drained")
}

func loadTenants(path string) ([]serve.TenantConfig, error) {
	if path == "" {
		return []serve.TenantConfig{{ID: "default"}}, nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var tenants []serve.TenantConfig
	if err := json.Unmarshal(data, &tenants); err != nil {
		return nil, fmt.Errorf("msgrd: parsing %s: %w", path, err)
	}
	return tenants, nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "msgrd: %v\n", err)
	os.Exit(1)
}
