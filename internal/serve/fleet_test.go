package serve

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dtree"
	"repro/internal/engine"
	"repro/internal/mw"
	"repro/internal/obs"
	"repro/internal/sim"
)

// testServer loads a census dataset into a fresh engine.
func testServer(t testing.TB, rows int) *engine.Server {
	t.Helper()
	ds, err := datagen.GenerateCensus(datagen.CensusConfig{Seed: 7, Rows: rows}.Normalize())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := engine.NewServer(engine.New(sim.NewDefaultMeter(), 0), "cases", ds)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// soloBuild runs a plain single-tenant build on its own engine and returns
// the tree.
func soloBuild(t *testing.T, rows int, cfg mw.Config, opt dtree.Options) *dtree.Tree {
	t.Helper()
	tree, _ := soloBuildMetered(t, rows, cfg, opt)
	return tree
}

// soloBuildMetered is soloBuild that also returns the build's meter.
func soloBuildMetered(t *testing.T, rows int, cfg mw.Config, opt dtree.Options) (*dtree.Tree, *sim.Meter) {
	t.Helper()
	srv := testServer(t, rows)
	m, err := mw.New(srv, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	tree, err := dtree.Build(m, opt)
	if err != nil {
		t.Fatal(err)
	}
	return tree, srv.Meter()
}

func baseCfg() mw.Config {
	return mw.Config{Staging: mw.StageFileAndMemory}
}

var testOpt = dtree.Options{MaxDepth: 6, MinRows: 20}

// runFleetN builds n identical sessions, all arriving at virtual zero, and
// returns the finished fleet.
func runFleetN(t *testing.T, srv *engine.Server, n int, cfg FleetConfig, opt dtree.Options) *Fleet {
	t.Helper()
	f, err := NewFleet(srv, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := f.Open("", opt, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Run(); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestFleetSingleSessionMatchesSolo: a one-session fleet is exactly a
// single-tenant build — same tree, same modeled page reads and virtual time
// on the session's own meter, with scan sharing on (a cohort of one shares
// nothing) or off, staged or not, on one lane or four, with memory for its
// counts tables or so little that nodes fall back to SQL statements.
// The engine's meter sees nothing: a session's streams and statements pay for
// their own, and its statements are in its own trace.
func TestFleetSingleSessionMatchesSolo(t *testing.T) {
	const rows = 1500
	for _, tc := range []struct {
		name    string
		cfg     mw.Config
		sharing bool
		memory  int64 // 0: unlimited
	}{
		{"columnar", baseCfg(), true, 0},
		{"unshared/staged", mw.Config{Staging: mw.StageFileAndMemory}, false, 0},
		{"unshared/unstaged", mw.Config{}, false, 0},
		{"fallback", mw.Config{}, false, 64},
	} {
		t.Run(tc.name, func(t *testing.T) {
			soloCfg := tc.cfg
			soloCfg.Memory = tc.memory
			solo, soloMeter := soloBuildMetered(t, rows, soloCfg, testOpt)

			srv := testServer(t, rows)
			col := obs.NewTrace()
			f, err := NewFleet(srv, col, FleetConfig{Base: tc.cfg, ScanSharing: tc.sharing, TotalMemory: tc.memory})
			if err != nil {
				t.Fatal(err)
			}
			s, err := f.Open("", testOpt, 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := f.Run(); err != nil {
				t.Fatal(err)
			}
			if s.Tree() == nil {
				t.Fatal("session has no tree")
			}
			if got, want := s.Tree().Dump(), solo.Dump(); got != want {
				t.Errorf("fleet tree differs from solo build:\n%s\nwant:\n%s", got, want)
			}
			if n := f.IOMeter().Count(sim.CtrServerPages); n != 0 {
				t.Errorf("single session charged %d shared pages; sharing needs a cohort of 2", n)
			}
			want := soloMeter.Count(sim.CtrServerPages)
			if want == 0 {
				t.Fatal("solo build charged no server pages")
			}
			if got := s.Meter().Count(sim.CtrServerPages); got != want {
				t.Errorf("session charged %d server pages, solo build %d", got, want)
			}
			if got := f.TotalServerPages(); got != want {
				t.Errorf("fleet total %d server pages, solo build %d", got, want)
			}
			if got, want := s.LatencyNS(), int64(soloMeter.Now()); got != want {
				t.Errorf("session latency %d ns, solo build %d ns", got, want)
			}
			if n := srv.Engine().Meter().Count(sim.CtrServerPages); n != 0 {
				t.Errorf("%d pages landed on the engine meter, which no session or fleet total reads", n)
			}
			if now := srv.Engine().Meter().Now(); now != 0 {
				t.Errorf("the engine's own clock advanced by %v; the session's statements run on the session's", now)
			}

			// Every statement the session issued is a span of its own proc,
			// inside the sql-fallback span of the node it served.
			stmts := s.Meter().Count(sim.CtrSQLStatements)
			if got, want := stmts, soloMeter.Count(sim.CtrSQLStatements); got != want || (want > 0) != (tc.memory > 0) {
				t.Errorf("session issued %d statements, solo build %d (memory %d)", got, want, tc.memory)
			}
			col.EachProc(func(p obs.ProcView) {
				cat := map[int64]string{}
				for _, sp := range p.Spans {
					cat[sp.ID] = sp.Cat
				}
				var sqlSpans int64
				for _, sp := range p.Spans {
					if sp.Cat != obs.CatSQL {
						continue
					}
					sqlSpans++
					if cat[sp.Parent] != obs.CatFallback {
						t.Errorf("sql span %d is under a %q span, want %q", sp.ID, cat[sp.Parent], obs.CatFallback)
					}
				}
				if sqlSpans != stmts {
					t.Errorf("proc %q holds %d sql spans for %d statements", p.Name, sqlSpans, stmts)
				}
			})
		})
	}
}

// TestFleetScanSharingReducesPages: four concurrent same-table builds with
// sharing on read fewer total pages than with sharing off, and every session
// still gets the single-tenant tree.
func TestFleetScanSharingReducesPages(t *testing.T) {
	const rows, n = 1500, 4
	solo := soloBuild(t, rows, baseCfg(), testOpt)

	off := runFleetN(t, testServer(t, rows),
		n, FleetConfig{Base: baseCfg(), ScanSharing: false}, testOpt)
	on := runFleetN(t, testServer(t, rows),
		n, FleetConfig{Base: baseCfg(), ScanSharing: true}, testOpt)

	for _, f := range []*Fleet{off, on} {
		for _, s := range f.Sessions() {
			if !dtree.Equal(s.Tree(), solo) {
				t.Fatalf("session %d tree differs from the single-tenant build", s.ID)
			}
		}
	}
	if onP, offP := on.TotalServerPages(), off.TotalServerPages(); onP >= offP {
		t.Errorf("scan sharing did not reduce pages: on=%d off=%d", onP, offP)
	} else {
		t.Logf("pages: sharing on %d, off %d (%.2fx)", onP, offP, float64(offP)/float64(onP))
	}
	if on.IOMeter().Count(sim.CtrServerPages) == 0 {
		t.Error("sharing-on run charged no pages to the shared io meter")
	}
}

// TestFleetSharingMatchesSerial: two concurrent sessions with different
// options, sharing scans, produce exactly the trees serial solo runs produce.
func TestFleetSharingMatchesSerial(t *testing.T) {
	const rows = 1500
	optA := dtree.Options{MaxDepth: 4, MinRows: 40}
	optB := dtree.Options{MaxDepth: 6, MinRows: 10}
	soloA := soloBuild(t, rows, baseCfg(), optA)
	soloB := soloBuild(t, rows, baseCfg(), optB)

	f, err := NewFleet(testServer(t, rows), nil, FleetConfig{Base: baseCfg(), ScanSharing: true})
	if err != nil {
		t.Fatal(err)
	}
	sa, err := f.Open("a", optA, 0)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := f.Open("b", optB, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Run(); err != nil {
		t.Fatal(err)
	}
	if !dtree.Equal(sa.Tree(), soloA) {
		t.Error("session a: shared-scan tree differs from serial build")
	}
	if !dtree.Equal(sb.Tree(), soloB) {
		t.Error("session b: shared-scan tree differs from serial build")
	}
}

// TestFleetDeterminism: the same fleet configuration replayed twice yields
// identical trees, clocks and page totals.
func TestFleetDeterminism(t *testing.T) {
	const rows, n = 1200, 3
	run := func() *Fleet {
		return runFleetN(t, testServer(t, rows),
			n, FleetConfig{Base: baseCfg(), TotalMemory: 1 << 20, ScanSharing: true}, testOpt)
	}
	a, b := run(), run()
	if a.TotalServerPages() != b.TotalServerPages() {
		t.Errorf("page totals differ across replays: %d vs %d", a.TotalServerPages(), b.TotalServerPages())
	}
	if a.MakespanNS() != b.MakespanNS() {
		t.Errorf("makespans differ across replays: %d vs %d", a.MakespanNS(), b.MakespanNS())
	}
	for i := range a.Sessions() {
		sa, sb := a.Sessions()[i], b.Sessions()[i]
		if sa.Tree().Dump() != sb.Tree().Dump() {
			t.Errorf("session %d trees differ across replays", sa.ID)
		}
		if sa.finishNS != sb.finishNS {
			t.Errorf("session %d finish times differ: %d vs %d", sa.ID, sa.finishNS, sb.finishNS)
		}
	}
}

// TestFleetAdmissionCap: with MaxSessions 1, sessions run strictly one after
// another — no cohort ever forms, later sessions wait for the slot, and
// finish times are strictly increasing.
func TestFleetAdmissionCap(t *testing.T) {
	const rows, n = 1200, 3
	f := runFleetN(t, testServer(t, rows),
		n, FleetConfig{Base: baseCfg(), MaxSessions: 1, ScanSharing: true}, testOpt)
	if got := f.IOMeter().Count(sim.CtrServerPages); got != 0 {
		t.Errorf("capped fleet shared %d pages; sessions never overlap", got)
	}
	ss := f.Sessions()
	for i := 1; i < len(ss); i++ {
		if ss[i].finishNS <= ss[i-1].finishNS {
			t.Errorf("session %d finished at %d, not after session %d at %d",
				ss[i].ID, ss[i].finishNS, ss[i-1].ID, ss[i-1].finishNS)
		}
		if ss[i].LatencyNS() <= ss[i-1].finishNS-ss[i].ArrivalNS()-1 {
			t.Errorf("session %d latency %d does not include its admission wait", ss[i].ID, ss[i].LatencyNS())
		}
	}
}

// TestFleetStaggeredArrivals: a seeded arrival schedule is accepted and
// arrival offsets show up in session latencies.
func TestFleetStaggeredArrivals(t *testing.T) {
	const rows, n = 1200, 3
	srv := testServer(t, rows)
	f, err := NewFleet(srv, nil, FleetConfig{Base: baseCfg(), ScanSharing: true})
	if err != nil {
		t.Fatal(err)
	}
	arr := sim.Arrivals(42, n, 1_000_000)
	for i := 0; i < n; i++ {
		if _, err := f.Open("", testOpt, arr[i]); err != nil {
			t.Fatal(err)
		}
	}
	// Out-of-order arrivals are rejected.
	if _, err := f.Open("late", testOpt, arr[0]); err == nil && arr[n-1] > arr[0] {
		t.Error("out-of-order arrival accepted")
	}
	if err := f.Run(); err != nil {
		t.Fatal(err)
	}
	for i, s := range f.Sessions()[:n] {
		if s.ArrivalNS() != arr[i] {
			t.Errorf("session %d arrival %d, want %d", s.ID, s.ArrivalNS(), arr[i])
		}
		if s.finishNS < s.ArrivalNS() {
			t.Errorf("session %d finished before it arrived", s.ID)
		}
	}
}

// TestNewFleetValidation: scan sharing requires sequential server access.
func TestNewFleetValidation(t *testing.T) {
	srv := testServer(t, 200)
	cases := []struct {
		name string
		cfg  FleetConfig
		want string
	}{
		{"copy-table", FleetConfig{Base: mw.Config{Access: mw.AccessCopyTable}, ScanSharing: true}, "sequential"},
		{"negative-memory", FleetConfig{TotalMemory: -1}, "negative"},
		{"negative-cap", FleetConfig{MaxSessions: -1}, "negative"},
	}
	for _, tc := range cases {
		if _, err := NewFleet(srv, nil, tc.cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: want error containing %q, got %v", tc.name, tc.want, err)
		}
	}
}

// stageDirs returns the names of middleware staging temp dirs currently on
// disk (mw's fileStore creates one per session when Config.Dir is empty).
func stageDirs(t *testing.T) map[string]bool {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(os.TempDir(), "mwstage-*"))
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]bool, len(matches))
	for _, m := range matches {
		out[m] = true
	}
	return out
}

// TestFleetRunErrorClosesSessions: a mid-run failure must release every
// admitted session's middleware — concretely, the per-session staging
// directories created at admission must be gone after Run returns the error.
// (Before the fix, Run's error returns left them on disk for the process
// lifetime.)
func TestFleetRunErrorClosesSessions(t *testing.T) {
	before := stageDirs(t)
	srv := testServer(t, 800)
	f, err := NewFleet(srv, nil, FleetConfig{Base: baseCfg()})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := f.Open("", testOpt, 0); err != nil {
			t.Fatal(err)
		}
	}
	injected := errors.New("injected mid-run failure")
	rounds := 0
	f.runHook = func() error {
		rounds++
		if rounds >= 3 {
			return injected
		}
		return nil
	}
	if err := f.Run(); !errors.Is(err, injected) {
		t.Fatalf("Run() = %v, want the injected error", err)
	}
	for _, s := range f.Sessions() {
		if !s.admitted {
			t.Fatalf("session %d was never admitted", s.ID)
		}
	}
	for dir := range stageDirs(t) {
		if !before[dir] {
			t.Errorf("staging dir %s leaked past the failed Run", dir)
		}
	}
	// Close stays idempotent after the cleanup.
	for _, s := range f.Sessions() {
		if err := s.Close(); err != nil {
			t.Errorf("second Close of session %d: %v", s.ID, err)
		}
	}
}

// stageDirOf reads a session's private staging directory out of its
// middleware. mw keeps the path to itself; reflection reads the string without
// widening mw's API for the one test that needs to sabotage it.
func stageDirOf(s *Session) string {
	return reflect.ValueOf(s.m).Elem().FieldByName("files").Elem().FieldByName("dir").String()
}

// TestFleetSharedRoundErrorAbortsCohort: when one participant of a shared
// round fails, the round must release what the others began. Three sessions
// share their root scan under file staging; session 3's staging directory is
// removed from under it, so its file-tee writer cannot be created after
// sessions 1 and 2 opened theirs. Run must return the error with every span of
// every session ended, no staging file left open or on disk, and the server
// fit for the next fleet. (Before the fix sessions 1 and 2 kept their open
// writers and their scan/batch spans, and no builder's build/level spans ever
// ended.)
func TestFleetSharedRoundErrorAbortsCohort(t *testing.T) {
	srv := testServer(t, 800)
	base := mw.Config{Staging: mw.StageFileOnly, Workers: 1, Dir: t.TempDir()}
	col := obs.NewTrace()
	f, err := NewFleet(srv, col, FleetConfig{Base: base, ScanSharing: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := f.Open("", testOpt, 0); err != nil {
			t.Fatal(err)
		}
	}
	rounds := 0
	f.runHook = func() error {
		if rounds++; rounds > 1 {
			return nil
		}
		return os.RemoveAll(stageDirOf(f.sessions[2]))
	}
	if err := f.Run(); err == nil {
		t.Fatal("Run succeeded with session 3's staging directory removed")
	}
	if rounds != 1 {
		t.Fatalf("failed in round %d, want the first (the shared root scan)", rounds)
	}

	procs := 0
	col.EachProc(func(pv obs.ProcView) {
		procs++
		began := false
		for _, s := range pv.Spans {
			began = began || s.Cat == obs.CatBatch
			if s.Deltas == nil {
				t.Errorf("%s: span %d %s/%s never ended", pv.Name, s.ID, s.Cat, s.Name)
			}
		}
		if !began {
			t.Errorf("%s: no batch span — the session never began the round", pv.Name)
		}
	})
	if procs != 3 {
		t.Fatalf("%d procs traced, want 3", procs)
	}
	if left, _ := filepath.Glob(filepath.Join(base.Dir, "mwstage-*")); len(left) != 0 {
		t.Errorf("staging directories survive the failed Run: %v", left)
	}
	// A removed directory hides a writer that was never closed; the process's
	// descriptor table does not.
	if fds, err := os.ReadDir("/proc/self/fd"); err == nil {
		for _, fd := range fds {
			if to, _ := os.Readlink(filepath.Join("/proc/self/fd", fd.Name())); strings.HasPrefix(to, base.Dir) {
				t.Errorf("descriptor %s still open on %s", fd.Name(), to)
			}
		}
	}

	want := soloBuild(t, 800, base, testOpt).Dump()
	for _, s := range runFleetN(t, srv, 2, FleetConfig{Base: base, ScanSharing: true}, testOpt).Sessions() {
		if s.Tree().Dump() != want {
			t.Errorf("session %d of the next fleet on the same server built a different tree", s.ID)
		}
	}
}
