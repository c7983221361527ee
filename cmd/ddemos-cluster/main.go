// ddemos-cluster is the one-command load harness: it runs the EA setup,
// launches a real multi-process cluster (VC nodes with TCP inter-VC links
// and HTTP voter endpoints, BB replicas, trustees) as child processes on
// localhost, drives paced open-loop vote traffic through ddemos-loadgen,
// waits for vote-set consensus, the BB push and the trustee tally, and
// verifies a majority-readable published Result — then writes the whole run
// as one JSON report: ddemos-loadgen's benchmark.LoadReport with the phase
// durations filled in.
//
//	ddemos-cluster -vc 4 -bb 3 -ballots 1000 -rate 200 -duration 60s \
//	               -out cluster.json
//
// With -churn > 0 and -durable, the harness SIGKILLs a round-robin victim
// (VC or BB) at that interval during the load phase and relaunches it
// against its journal directory — the crash-restart composition under live
// traffic.
//
// Exit status: 0 = result published and consistent with the load, 1 = any
// phase failed, 2 = usage error.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"ddemos/internal/bb"
	"ddemos/internal/benchmark"
	"ddemos/internal/ea"
	"ddemos/internal/httpapi"
	"ddemos/internal/store"
)

func main() {
	os.Exit(run())
}

// harnessConfig collects the flag values.
type harnessConfig struct {
	nv, nb, nt, threshold int
	ballots               int
	options               string
	segmentBallots        int
	consensus             string
	rate                  float64
	duration              time.Duration
	workers               int
	timeout               time.Duration
	boot                  time.Duration
	binDir                string
	workdir               string
	keep                  bool
	durable               bool
	fsync                 bool
	journalPool           int
	journalPolicy         string
	batch                 bool
	churn                 time.Duration
	churnBB               bool
	maxErrRate            float64
	out                   string
	verbose               bool
}

func run() int {
	var cfg harnessConfig
	flag.IntVar(&cfg.nv, "vc", 4, "vote collector nodes (the consensus floor is 4: 3f+1 with f ≥ 1)")
	flag.IntVar(&cfg.nb, "bb", 3, "bulletin board replicas")
	flag.IntVar(&cfg.nt, "trustees", 3, "trustees")
	flag.IntVar(&cfg.threshold, "threshold", 0, "trustee threshold (0 = majority)")
	flag.IntVar(&cfg.ballots, "ballots", 1000, "ballot pool size")
	flag.StringVar(&cfg.options, "options", "yes,no", "comma-separated election options")
	flag.IntVar(&cfg.segmentBallots, "segment-ballots", 0, "ballots per EA-emitted segment file (0 = store default)")
	flag.StringVar(&cfg.consensus, "consensus", "interlocked",
		"vote-set-consensus engine passed to every VC: 'interlocked' or 'acs'")
	flag.Float64Var(&cfg.rate, "rate", 200, "loadgen target rate, votes/sec")
	flag.DurationVar(&cfg.duration, "duration", 60*time.Second, "loadgen schedule length")
	flag.IntVar(&cfg.workers, "workers", 0, "loadgen in-flight bound (0 = loadgen default)")
	flag.DurationVar(&cfg.timeout, "timeout", 10*time.Second, "loadgen per-request timeout")
	flag.DurationVar(&cfg.boot, "boot", 15*time.Second, "time budget for processes to come up before voting starts")
	flag.StringVar(&cfg.binDir, "bin", "", "directory holding the ddemos-* binaries (default: this binary's directory)")
	flag.StringVar(&cfg.workdir, "workdir", "", "working directory for election files, journals and artifacts (default: temp dir)")
	flag.BoolVar(&cfg.keep, "keep", false, "keep the workdir after the run")
	flag.BoolVar(&cfg.durable, "durable", false, "give every VC and BB a journal -data-dir (required for -churn)")
	flag.BoolVar(&cfg.fsync, "fsync", false, "pass -fsync to VC/BB nodes (requires -durable)")
	flag.IntVar(&cfg.journalPool, "journal-pool", 1, "number of journal WAL lanes for VC/BB nodes (requires -durable)")
	flag.StringVar(&cfg.journalPolicy, "journal-policy", "available", "journal ack policy for VC/BB nodes")
	flag.BoolVar(&cfg.batch, "batch", false, "pass -batch to the VCs: inter-VC messages that queue while a link is busy leave as one batch")
	flag.DurationVar(&cfg.churn, "churn", 0, "SIGKILL + restart one node at this interval during load (0 = off; requires -durable)")
	flag.BoolVar(&cfg.churnBB, "churn-bb", false, "include BB replicas in the churn victim rotation")
	flag.Float64Var(&cfg.maxErrRate, "max-error-rate", 0.01, "loadgen error fraction above which the run fails")
	flag.StringVar(&cfg.out, "out", "", "write the run's JSON report (load and phase durations) here")
	flag.BoolVar(&cfg.verbose, "v", false, "forward child process output")
	flag.Parse()
	log.SetFlags(0)

	if cfg.churn > 0 && !cfg.durable {
		log.Print("cluster: -churn requires -durable (a killed node must recover from its journal)")
		return 2
	}
	if cfg.binDir == "" {
		exe, err := os.Executable()
		if err != nil {
			log.Printf("cluster: %v", err)
			return 2
		}
		cfg.binDir = filepath.Dir(exe)
	}
	for _, b := range []string{"ddemos-ea", "ddemos-vc", "ddemos-bb", "ddemos-trustee", "ddemos-loadgen"} {
		if _, err := os.Stat(filepath.Join(cfg.binDir, b)); err != nil {
			log.Printf("cluster: missing binary %s in %s (go build -o <dir> ./cmd/...)", b, cfg.binDir)
			return 2
		}
	}
	if cfg.workdir == "" {
		dir, err := os.MkdirTemp("", "ddemos-cluster-")
		if err != nil {
			log.Printf("cluster: %v", err)
			return 2
		}
		cfg.workdir = dir
	} else if err := os.MkdirAll(cfg.workdir, 0o700); err != nil {
		log.Printf("cluster: %v", err)
		return 2
	}

	o := &orch{cfg: cfg}
	defer o.teardown()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := o.runElection(ctx); err != nil {
		log.Printf("cluster: FAIL — %v", err)
		return 1
	}
	return 0
}

// orch owns the child processes and the port plan of one harness run.
type orch struct {
	cfg harnessConfig

	mu    sync.Mutex
	procs []*proc // every live process, for teardown
	vcs   []*proc // current process per VC index (churn swaps entries)
	bbs   []*proc // current process per BB index

	vcURLs []string
	bbURLs []string

	churnRestarts int
}

// proc is one supervised child process.
type proc struct {
	name string
	cmd  *exec.Cmd
	done chan error // receives cmd.Wait's result exactly once
}

// startProc launches a binary with line-prefixed output forwarding.
func (o *orch) startProc(name, bin string, args ...string) (*proc, error) {
	cmd := exec.Command(filepath.Join(o.cfg.binDir, bin), args...) //nolint:gosec // our own binaries
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, done: make(chan error, 1)}
	go func() {
		sc := bufio.NewScanner(stdout)
		sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
		for sc.Scan() {
			if o.cfg.verbose {
				log.Printf("[%s] %s", name, sc.Text())
			}
		}
		p.done <- cmd.Wait()
	}()
	o.mu.Lock()
	o.procs = append(o.procs, p)
	o.mu.Unlock()
	return p, nil
}

// wait blocks until the process exits or the deadline passes.
func (p *proc) wait(d time.Duration) error {
	select {
	case err := <-p.done:
		p.done <- err // re-arm for teardown
		return err
	case <-time.After(d):
		return fmt.Errorf("%s: still running after %v", p.name, d)
	}
}

// kill SIGKILLs the process and reaps it.
func (p *proc) kill() {
	_ = p.cmd.Process.Kill()
	<-p.done
	p.done <- nil
}

func (o *orch) teardown() {
	o.mu.Lock()
	procs := o.procs
	o.procs = nil
	o.mu.Unlock()
	for _, p := range procs {
		if p.cmd.ProcessState == nil {
			_ = p.cmd.Process.Kill()
		}
	}
	for _, p := range procs {
		select {
		case <-p.done:
		case <-time.After(5 * time.Second):
		}
	}
	if !o.cfg.keep {
		_ = os.RemoveAll(o.cfg.workdir)
	} else {
		log.Printf("cluster: workdir kept at %s", o.cfg.workdir)
	}
}

// freePorts reserves n distinct localhost TCP ports by listening and
// closing; the tiny reuse race is acceptable for a test harness.
func freePorts(n int) ([]int, error) {
	ports := make([]int, 0, n)
	listeners := make([]net.Listener, 0, n)
	defer func() {
		for _, l := range listeners {
			_ = l.Close()
		}
	}()
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		listeners = append(listeners, l)
		ports = append(ports, l.Addr().(*net.TCPAddr).Port)
	}
	return ports, nil
}

func (o *orch) runElection(ctx context.Context) error {
	cfg := o.cfg
	electionDir := filepath.Join(cfg.workdir, "election")

	// Phase 0: EA setup. The voting window opens after the boot budget and
	// closes when the load schedule has drained.
	start := time.Now().Add(cfg.boot).Truncate(time.Second)
	end := start.Add(cfg.duration + 10*time.Second)
	log.Printf("cluster: EA setup — %d ballots, %d VC, %d BB, %d trustees; voting %s → %s",
		cfg.ballots, cfg.nv, cfg.nb, cfg.nt, start.Format(time.RFC3339), end.Format(time.RFC3339))
	eaArgs := []string{
		"-out", electionDir,
		"-ballots", fmt.Sprint(cfg.ballots),
		"-options", cfg.options,
		"-vc", fmt.Sprint(cfg.nv),
		"-bb", fmt.Sprint(cfg.nb),
		"-trustees", fmt.Sprint(cfg.nt),
		"-threshold", fmt.Sprint(cfg.threshold),
		"-start", start.Format(time.RFC3339),
		"-end", end.Format(time.RFC3339),
	}
	if cfg.segmentBallots > 0 {
		eaArgs = append(eaArgs, "-segment-ballots", fmt.Sprint(cfg.segmentBallots))
	}
	eaProc, err := o.startProc("ea", "ddemos-ea", eaArgs...)
	if err != nil {
		return err
	}
	if err := eaProc.wait(2 * time.Minute); err != nil {
		return fmt.Errorf("ea setup: %w", err)
	}
	// The zero-copy handoff contract: the EA emitted one pre-built segment
	// directory per VC, and the VCs will open them directly (vc-<i>.gob
	// names the directory, carries no inline pool). Verify here so a silent
	// regression to inline pools fails the harness.
	for i := 0; i < cfg.nv; i++ {
		manifest := filepath.Join(electionDir, fmt.Sprintf("vc-%d-ballots", i), store.ManifestName)
		if _, err := os.Stat(manifest); err != nil {
			return fmt.Errorf("segment handoff: EA did not emit %s: %w", manifest, err)
		}
	}
	log.Printf("cluster: EA emitted %d per-VC segment directories (zero-copy handoff)", cfg.nv)

	// Port plan: TCP + HTTP per VC, HTTP per BB.
	ports, err := freePorts(2*cfg.nv + cfg.nb)
	if err != nil {
		return err
	}
	vcTCP, vcHTTP, bbHTTP := ports[:cfg.nv], ports[cfg.nv:2*cfg.nv], ports[2*cfg.nv:]
	peers := make([]string, cfg.nv)
	for i := range peers {
		peers[i] = fmt.Sprintf("127.0.0.1:%d", vcTCP[i])
	}
	o.vcURLs = make([]string, cfg.nv)
	for i := range o.vcURLs {
		o.vcURLs[i] = fmt.Sprintf("http://127.0.0.1:%d", vcHTTP[i])
	}
	o.bbURLs = make([]string, cfg.nb)
	for i := range o.bbURLs {
		o.bbURLs[i] = fmt.Sprintf("http://127.0.0.1:%d", bbHTTP[i])
	}

	// Phase 1: launch BB replicas and VC nodes.
	o.bbs = make([]*proc, cfg.nb)
	for i := 0; i < cfg.nb; i++ {
		p, err := o.startProc(fmt.Sprintf("bb-%d", i), "ddemos-bb", o.bbArgs(i)...)
		if err != nil {
			return err
		}
		o.bbs[i] = p
	}
	o.vcs = make([]*proc, cfg.nv)
	for i := 0; i < cfg.nv; i++ {
		p, err := o.startProc(fmt.Sprintf("vc-%d", i), "ddemos-vc", o.vcArgs(i, peers)...)
		if err != nil {
			return err
		}
		o.vcs[i] = p
	}
	if err := o.awaitReady(ctx, start); err != nil {
		return err
	}
	log.Printf("cluster: %d VC + %d BB nodes ready", cfg.nv, cfg.nb)

	// Phase 2: paced load (+ optional churn) over the voting window.
	if wait := time.Until(start); wait > 0 {
		time.Sleep(wait)
	}
	churnDone := make(chan struct{})
	var churnWG sync.WaitGroup
	if cfg.churn > 0 {
		churnWG.Add(1)
		go func() {
			defer churnWG.Done()
			o.churnLoop(peers, churnDone)
		}()
	}
	loadOut := filepath.Join(cfg.workdir, "load.json")
	loadArgs := []string{
		"-vc", strings.Join(o.vcURLs, ","),
		"-ballots", filepath.Join(electionDir, "ballots.gob"),
		"-rate", fmt.Sprint(cfg.rate),
		"-duration", cfg.duration.String(),
		"-timeout", cfg.timeout.String(),
		"-max-error-rate", fmt.Sprint(cfg.maxErrRate),
		"-out", loadOut,
		"-scrape",
	}
	if cfg.workers > 0 {
		loadArgs = append(loadArgs, "-workers", fmt.Sprint(cfg.workers))
	}
	log.Printf("cluster: driving %g votes/sec for %v against %d VC nodes", cfg.rate, cfg.duration, cfg.nv)
	lg, err := o.startProc("loadgen", "ddemos-loadgen", loadArgs...)
	if err != nil {
		close(churnDone)
		churnWG.Wait()
		return err
	}
	lgErr := lg.wait(cfg.duration + 2*time.Minute)
	close(churnDone)
	churnWG.Wait()
	if lgErr != nil {
		return fmt.Errorf("loadgen: %w", lgErr)
	}

	// Phase 3: the VCs run vote-set consensus at the election end and push
	// to the BBs, then exit. Their exit marks the consensus+push phase done.
	votingEnd := end
	for i, p := range o.currentVCs() {
		if err := p.wait(time.Until(votingEnd) + 3*time.Minute); err != nil {
			return fmt.Errorf("vc-%d consensus/push: %w", i, err)
		}
	}
	consensusPush := time.Since(votingEnd)
	if consensusPush < 0 {
		consensusPush = 0
	}
	lastVCExit := time.Now()
	log.Printf("cluster: all VCs exited %v after voting end (consensus + BB push)",
		consensusPush.Round(time.Millisecond))

	// Phase 4: trustees read the cast data and post their shares.
	for i := 0; i < cfg.nt; i++ {
		p, err := o.startProc(fmt.Sprintf("trustee-%d", i), "ddemos-trustee",
			"-init", filepath.Join(electionDir, fmt.Sprintf("trustee-%d.gob", i)),
			"-bb", strings.Join(o.bbURLs, ","),
			"-wait", "2s")
		if err != nil {
			return err
		}
		if err := p.wait(3 * time.Minute); err != nil {
			return fmt.Errorf("trustee-%d: %w", i, err)
		}
	}

	// Phase 5: poll the majority reader until the Result publishes.
	result, err := o.awaitResult(ctx, 3*time.Minute)
	if err != nil {
		return err
	}
	publish := time.Since(lastVCExit)

	return o.report(electionDir, loadOut, result, consensusPush, publish)
}

func (o *orch) bbArgs(i int) []string {
	cfg := o.cfg
	args := []string{
		"-init", filepath.Join(cfg.workdir, "election", "bb.gob"),
		"-http", strings.TrimPrefix(o.bbURLs[i], "http://"),
	}
	if cfg.durable {
		args = append(args,
			"-data-dir", filepath.Join(cfg.workdir, fmt.Sprintf("bb-%d", i)),
			"-journal-pool", fmt.Sprint(cfg.journalPool),
			"-journal-policy", cfg.journalPolicy)
		if cfg.fsync {
			args = append(args, "-fsync")
		}
	}
	return args
}

func (o *orch) vcArgs(i int, peers []string) []string {
	cfg := o.cfg
	args := []string{
		"-init", filepath.Join(cfg.workdir, "election", fmt.Sprintf("vc-%d.gob", i)),
		"-listen", peers[i],
		"-peers", strings.Join(peers, ","),
		"-http", strings.TrimPrefix(o.vcURLs[i], "http://"),
		"-bb", strings.Join(o.bbURLs, ","),
	}
	if cfg.consensus != "" && cfg.consensus != "interlocked" {
		args = append(args, "-consensus", cfg.consensus)
	}
	if cfg.batch {
		args = append(args, "-batch")
	}
	if cfg.durable {
		args = append(args,
			"-data-dir", filepath.Join(cfg.workdir, fmt.Sprintf("vc-%d", i)),
			"-journal-pool", fmt.Sprint(cfg.journalPool),
			"-journal-policy", cfg.journalPolicy)
		if cfg.fsync {
			args = append(args, "-fsync")
		}
	}
	return args
}

// awaitReady polls every node's HTTP endpoint until all answer or the boot
// budget runs out.
func (o *orch) awaitReady(ctx context.Context, deadline time.Time) error {
	to := httpapi.Timeouts{Dial: 500 * time.Millisecond, Request: 2 * time.Second}
	for {
		ready := 0
		for _, u := range o.vcURLs {
			c := &httpapi.VCClient{BaseURL: u, Timeouts: to}
			if _, err := c.Metrics(ctx); err == nil {
				ready++
			}
		}
		for _, u := range o.bbURLs {
			c := &httpapi.BBClient{BaseURL: u, Timeouts: to}
			if _, err := c.Read(ctx, bb.KindManifest); err == nil {
				ready++
			}
		}
		if ready == len(o.vcURLs)+len(o.bbURLs) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("boot: only %d/%d nodes ready before the voting window",
				ready, len(o.vcURLs)+len(o.bbURLs))
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(200 * time.Millisecond):
		}
	}
}

// churnLoop SIGKILLs and relaunches a round-robin victim until done closes.
// VC victims rotate always; BB victims join the rotation with -churn-bb.
func (o *orch) churnLoop(peers []string, done <-chan struct{}) {
	victims := len(o.vcs)
	if o.cfg.churnBB {
		victims += len(o.bbs)
	}
	next := 0
	for {
		select {
		case <-done:
			return
		case <-time.After(o.cfg.churn):
		}
		v := next % victims
		next++
		if v < len(o.vcs) {
			o.mu.Lock()
			victim := o.vcs[v]
			o.mu.Unlock()
			log.Printf("cluster: churn — killing vc-%d", v)
			victim.kill()
			p, err := o.startProc(fmt.Sprintf("vc-%d", v), "ddemos-vc", o.vcArgs(v, peers)...)
			if err != nil {
				log.Printf("cluster: churn restart vc-%d: %v", v, err)
				return
			}
			o.mu.Lock()
			o.vcs[v] = p
			o.churnRestarts++
			o.mu.Unlock()
		} else {
			b := v - len(o.vcs)
			o.mu.Lock()
			victim := o.bbs[b]
			o.mu.Unlock()
			log.Printf("cluster: churn — killing bb-%d", b)
			victim.kill()
			p, err := o.startProc(fmt.Sprintf("bb-%d", b), "ddemos-bb", o.bbArgs(b)...)
			if err != nil {
				log.Printf("cluster: churn restart bb-%d: %v", b, err)
				return
			}
			o.mu.Lock()
			o.bbs[b] = p
			o.churnRestarts++
			o.mu.Unlock()
		}
	}
}

func (o *orch) currentVCs() []*proc {
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]*proc(nil), o.vcs...)
}

// awaitResult polls the BB majority reader until fb+1 replicas agree on a
// published Result.
func (o *orch) awaitResult(ctx context.Context, patience time.Duration) (*bb.Result, error) {
	var apis []bb.API
	for _, u := range o.bbURLs {
		c := &httpapi.BBClient{BaseURL: u, Timeouts: httpapi.Timeouts{Request: 10 * time.Second}}
		apis = append(apis, c.API(ctx))
	}
	reader := bb.NewReader(apis)
	deadline := time.Now().Add(patience)
	for {
		res, err := reader.Result()
		if err == nil {
			return res, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("result not published after %v: %w", patience, err)
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(time.Second):
		}
	}
}

// report reads the loadgen report, verifies the tally against the load,
// and writes the report with the orchestrator's phase durations to -out.
func (o *orch) report(electionDir, loadOut string, result *bb.Result, consensusPush, publish time.Duration) error {
	rep, err := benchmark.ReadLoadReport(loadOut)
	if err != nil {
		return fmt.Errorf("loadgen report: %w", err)
	}

	var manifest ea.Manifest
	if err := httpapi.ReadGobFile(filepath.Join(electionDir, "manifest.gob"), &manifest); err != nil {
		return err
	}
	var total int64
	parts := make([]string, len(result.Counts))
	for i, c := range result.Counts {
		total += c
		name := fmt.Sprint(i)
		if i < len(manifest.Options) {
			name = manifest.Options[i]
		}
		parts[i] = fmt.Sprintf("%s=%d", name, c)
	}
	log.Printf("cluster: result published — %s (%d votes tallied)", strings.Join(parts, " "), total)
	if err := checkTally(total, rep); err != nil {
		return err
	}

	o.mu.Lock()
	rep.ChurnRestarts = o.churnRestarts
	o.mu.Unlock()
	rep.ConsensusPushS = consensusPush.Seconds()
	rep.PublishS = publish.Seconds()
	log.Printf("cluster: consensus+push %.1fs, publish %.1fs, churn restarts %d",
		rep.ConsensusPushS, rep.PublishS, rep.ChurnRestarts)

	if o.cfg.out != "" {
		if err := rep.WriteFile(o.cfg.out); err != nil {
			return err
		}
		log.Printf("cluster: wrote %s", o.cfg.out)
	}
	log.Print("cluster: PASS — result published")
	return nil
}

// checkTally is the run's correctness check against the load: with zero load
// errors every distinct serial's vote is in the tally, and with errors the
// tally can miss only those serials.
func checkTally(total int64, load benchmark.LoadReport) error {
	distinct, errs := int64(load.DistinctSerials), int64(load.Errors)
	if total > distinct || total < distinct-errs {
		return fmt.Errorf("tally %d inconsistent with load (%d distinct serials, %d errors)",
			total, distinct, errs)
	}
	return nil
}
