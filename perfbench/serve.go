package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"time"

	"repro/internal/machine"
	"repro/internal/program"
	"repro/internal/service"
	"repro/internal/service/client"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Job mix of one serve round: serveJobs jobs, every fourth a repeat of an
// earlier spec, the distinct specs at positions 5 and 17 full-size
// library programs and the rest profile jobs at serveScale, then the fault job.
const (
	serveJobs  = 32
	serveScale = 0.05
)

// serveSystems and servePrograms make up the jobs. Baseline, HW-RP and
// producer-consumer-ring are left out: their end-of-run drain has nothing
// to flush, and with the service's stall watchdog armed such a run's
// drain_cycles come back inflated by the watchdog horizon, so every such
// job fails its check and the share of failures would follow the seed.
// faultJob keeps that fault in view with one fixed spec per round.
var (
	serveSystems  = []machine.SystemKind{machine.BSP, machine.BSPSLC, machine.BSPSLCAGB, machine.STW, machine.TSOPER}
	servePrograms = []string{"work-stealing-deque", "log-structured-writer"}
)

// faultJob fails every time (see serveSystems); it is counted in failed.
var faultJob = service.JobSpec{Bench: "barnes", System: "hw-rp", Scale: serveScale, Seed: 42}

// serve drives an in-process service.Server on a loopback listener with
// service/client in a closed loop of one client: a second client makes the
// submit->result time depend on queueing behind the other's job, which
// does not repeat from run to run. Every round runs the same job list on a
// fresh server, so every round sees the same cache misses and hits.
type serve struct {
	seed  int64
	specs []service.JobSpec // the round's job list, repeats included
	first []int             // index of the spec's first submission
	// faultRef is faultJob's reference bytes.
	faultRef []byte

	srv     *service.Server
	httpSrv *http.Server
	served  chan error
	cl      *client.Client
	hc      *http.Client

	results  map[int][]byte // job index -> result bytes (first round)
	serveErr error          // the HTTP server's exit error, if not a clean close
	jobMS    []float64
	svc      map[string]float64 // service counters of the last round
}

func newServe(seed int64) *serve { return &serve{seed: subSeed(seed, 3)} }

// jobMix builds the round's job list from the seed.
func (s *serve) jobMix() error {
	s.specs, s.first = nil, nil
	rng := rand.New(rand.NewSource(s.seed))
	profiles := trace.Benchmarks()
	progs := 0
	for i := 0; i < serveJobs; i++ {
		if i%4 == 3 {
			j := rng.Intn(i)
			for j%4 == 3 {
				j--
			}
			s.specs = append(s.specs, s.specs[j])
			s.first = append(s.first, j)
			continue
		}
		var spec service.JobSpec
		if progs < len(servePrograms) && i%12 == 5 {
			p, err := program.ByName(servePrograms[progs])
			if err != nil {
				return err
			}
			spec = service.JobSpec{Program: p, System: "tsoper", Seed: rng.Int63n(1<<31) + 1}
			progs++
		} else {
			spec = service.JobSpec{
				Bench:  profiles[rng.Intn(len(profiles))].Name,
				System: serveSystems[rng.Intn(len(serveSystems))].String(),
				Scale:  serveScale,
				Seed:   rng.Int63n(1<<31) + 1,
			}
		}
		s.specs = append(s.specs, spec)
		s.first = append(s.first, i)
	}
	return nil
}

// setup builds the job list, starts a fresh server and makes the first
// connection.
func (s *serve) setup(b *bench) error {
	s.close()
	if err := s.jobMix(); err != nil {
		return err
	}
	if s.faultRef == nil {
		ref, err := reference(faultJob)
		if err != nil {
			return err
		}
		s.faultRef = ref
	}
	s.srv = service.New(service.Config{})
	s.srv.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.httpSrv = &http.Server{Handler: s.srv}
	s.served = make(chan error, 1)
	go func() { s.served <- s.httpSrv.Serve(ln) }()
	s.hc = &http.Client{Timeout: 60 * time.Second}
	s.cl = client.New("http://"+ln.Addr().String(), s.hc)
	return s.cl.Healthz(context.Background())
}

// close stops the server and waits for its goroutines.
func (s *serve) close() {
	if s.httpSrv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = s.httpSrv.Shutdown(ctx)
	if err := <-s.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		s.serveErr = err
	}
	_ = s.srv.Drain(ctx)
	s.hc.CloseIdleConnections()
	s.httpSrv = nil
}

func (s *serve) round(b *bench) error {
	ctx := context.Background()
	firstRound := s.results == nil
	if firstRound {
		s.results = map[int][]byte{}
	}
	for i, spec := range s.specs {
		var body []byte
		var st service.JobStatus
		b.item("job", func() error {
			var err error
			if b.tr.on {
				body, st, err = tracedRun(ctx, b.tr, s.cl, spec)
			} else {
				body, st, err = s.cl.Run(ctx, spec)
			}
			return err
		})
		if body == nil {
			continue
		}
		b.untimed(func() {
			if repeat := s.first[i] != i; repeat != st.CacheHit {
				b.check(fmt.Errorf("job %d: cache_hit=%v, repeat=%v", i, st.CacheHit, repeat))
			}
			if !st.CacheHit {
				s.jobMS = append(s.jobMS, st.LatencyMS)
			}
			if firstRound {
				s.results[i] = body
			} else if err := checkBytes(body, s.results[i]); err != nil {
				b.check(fmt.Errorf("job %d, round %d: %w", i, b.rounds+1, err))
			}
		})
	}
	b.item("job", func() error {
		body, _, err := s.cl.Run(ctx, faultJob)
		if err != nil {
			return err
		}
		return checkBytes(body, s.faultRef)
	})
	var err error
	b.untimed(func() {
		s.svc, err = serviceCounters(ctx, s.hc, s.cl.Base())
		s.close()
	})
	return err
}

// tracedRun is client.Run's success path with a span around each call.
func tracedRun(ctx context.Context, tr *tracer, cl *client.Client, spec service.JobSpec) ([]byte, service.JobStatus, error) {
	var st service.JobStatus
	var err error
	tr.do("client.submit", "", func() { st, err = cl.Submit(ctx, spec) })
	if err != nil {
		return nil, st, err
	}
	if st.State != "done" {
		tr.do("client.wait", "", func() { st, err = cl.Wait(ctx, st.ID, 0) })
		if err != nil {
			return nil, st, err
		}
	}
	if st.State != "done" {
		return nil, st, fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	var body []byte
	tr.do("client.result", "", func() { body, err = cl.Result(ctx, st.ID) })
	return body, st, err
}

// serviceCounters reads /metrics as generic JSON, so the benchmark does not
// depend on the metrics document's Go type.
func serviceCounters(ctx context.Context, hc *http.Client, base string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, fmt.Errorf("decoding /metrics: %w", err)
	}
	out := map[string]float64{}
	cache, _ := doc["cache"].(map[string]any)
	for _, k := range []string{"hits", "misses", "dedups", "evictions"} {
		v, _ := cache[k].(float64)
		out[k] = v
	}
	return out, nil
}

// reference runs a spec directly in process: the bytes a correct service
// must return for it.
func reference(spec service.JobSpec) ([]byte, error) {
	var kind machine.SystemKind
	for _, k := range machine.Systems() {
		if k.String() == spec.System {
			kind = k
		}
	}
	cfg := machine.TableI(kind)
	var w *trace.Workload
	if spec.Program != nil {
		var err error
		if w, err = spec.Program.Compile(program.Env{Cores: cfg.Cores, Ranks: cfg.NVM.Ranks}, spec.Seed); err != nil {
			return nil, err
		}
	} else {
		p, _ := trace.ByName(spec.Bench)
		w = trace.Generate(p.Scale(spec.Scale), cfg.Cores, spec.Seed)
	}
	m, err := machine.New(cfg)
	if err != nil {
		return nil, err
	}
	m.Start(w)
	if _, err := m.Advance(sim.MaxTime); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	err = m.Results().Snapshot().WriteJSON(&buf)
	return buf.Bytes(), err
}

func (s *serve) finish(b *bench) error {
	s.close()
	if s.serveErr != nil {
		return s.serveErr
	}
	refs := map[int][]byte{}
	for i := range s.specs {
		j := s.first[i]
		if refs[j] == nil {
			ref, err := reference(s.specs[j])
			if err != nil {
				return err
			}
			refs[j] = ref
		}
		got, ok := s.results[i]
		if !ok {
			continue
		}
		if err := checkBytes(got, refs[j]); err != nil {
			b.check(fmt.Errorf("job %d (%s/%s): %w", i, s.specs[i].Bench, s.specs[i].System, err))
		}
	}
	b.layer["service.job_ms"] = mean(s.jobMS)
	b.layer["service.cache_hits"] = s.svc["hits"]
	b.layer["service.cache_misses"] = s.svc["misses"]
	b.layer["service.dedups"] = s.svc["dedups"]
	b.layer["service.evictions"] = s.svc["evictions"]
	return paperProbe(b)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}
