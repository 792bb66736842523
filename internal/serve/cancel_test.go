package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/dtree"
	"repro/internal/mw"
	"repro/internal/obs"
	"repro/internal/obs/profile"
	"repro/internal/sim"
	"repro/internal/wire"
)

// checkSpansNest asserts, on every proc of col, that every span ended and
// what the profiler's subtraction rests on: each child lies inside its
// parent, and siblings (roots too), in start order, are disjoint.
func checkSpansNest(t *testing.T, col *obs.Trace) {
	t.Helper()
	col.EachProc(func(pv obs.ProcView) {
		for _, s := range pv.Spans {
			if s.Deltas == nil {
				t.Errorf("%s: span %d %s/%s never ended", pv.Name, s.ID, s.Cat, s.Name)
			}
		}
	})
	var walk func(label string, sibs []*profile.Node, parent *profile.Node)
	walk = func(label string, sibs []*profile.Node, parent *profile.Node) {
		for i, n := range sibs {
			if parent != nil && (n.StartNS < parent.StartNS || n.EndNS() > parent.EndNS()) {
				t.Errorf("%s: span %d %s/%s [%d, %d) is not inside its parent %d [%d, %d)",
					label, n.ID, n.Cat, n.Name, n.StartNS, n.EndNS(), parent.ID, parent.StartNS, parent.EndNS())
			}
			if i > 0 && sibs[i-1].EndNS() > n.StartNS {
				t.Errorf("%s: sibling spans %d (ends %d) and %d (starts %d) overlap",
					label, sibs[i-1].ID, sibs[i-1].EndNS(), n.ID, n.StartNS)
			}
			walk(label, n.Children, n)
		}
	}
	for _, p := range profile.Compute(col).Procs {
		walk(p.Label, p.Roots, nil)
	}
}

// TestFleetCancelledSessionLeavesCohort: a shared cohort of three builds and
// one scorer, under file staging, with one session cancelled at a sampled
// round — one of the builds, or the scorer: the first round, the one it
// finished in without the cancel, and one drawn between. Uncapped, the scorer
// rides the first shared scan; capped at three sessions, it waits for a slot
// — it can be cancelled before its admission — and scores alone. The capped
// cohort also runs under a 48 KB budget: each build's slice (16 KB) is fixed
// at admission, so a session leaving moves no survivor's batches, and a
// build's node ids (which follow its batches) are a solo build's with that
// memory, cancel or not. The cancel lands inside its round (runHook runs
// after admission), where the session's solo pass or the end of the shared
// scan meets it, or after it, where the round's end does: the session leaves
// through the abort path, the run carries on, and the other sessions' trees
// and predictions are byte-identical to an uncancelled run's. Every span of
// every proc has ended and nests, and the staging directory is empty — also
// when the run's own context is cancelled.
func TestFleetCancelledSessionLeavesCohort(t *testing.T) {
	const rows = 1500
	model, _, _ := inProcessScoreArm(t, rows, testOpt)
	opts := []dtree.Options{testOpt, {MaxDepth: 4, MinRows: 40}, {MaxDepth: 5, MinRows: 10}}

	type outcome struct {
		f        *Fleet
		doneAt   map[int]int // session id -> the round it finished or left in
		fileRows int64
	}
	type arm struct {
		name        string
		maxSessions int
		memory      int64 // TotalMemory; 0: unlimited
	}
	const budget, capped = 48 << 10, 3
	arms := []arm{{"max=0", 0, 0}, {"max=3", capped, 0}, {"max=3/memory=48K", capped, budget}}
	// solo[i] dumps opts[i]'s tree built alone with the budgeted arm's slice.
	var solo []string
	for _, opt := range opts {
		cfg := mw.Config{Staging: mw.StageFileAndMemory, Dir: t.TempDir(), Memory: budget / capped}
		solo = append(solo, soloBuild(t, rows, cfg, opt).Dump())
	}
	// run runs the cohort, cancelling session victim (an id; 0: none; -1: the
	// run's context) at round at, and checks what every run must leave
	// behind.
	run := func(t *testing.T, a arm, victim, at int) outcome {
		t.Helper()
		dir := t.TempDir()
		col := obs.NewTrace()
		f, err := NewFleet(testServer(t, rows), col, FleetConfig{
			Base:        mw.Config{Staging: mw.StageFileAndMemory, Dir: dir},
			TotalMemory: a.memory, MaxSessions: a.maxSessions, ScanSharing: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, opt := range opts {
			if _, err := f.Open("", opt, 0); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := f.OpenScore("", model, 1, 0); err != nil {
			t.Fatal(err)
		}
		o := outcome{f: f, doneAt: map[int]int{}}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		round := 0
		f.runHook = func() error {
			round++
			for _, s := range f.sessions {
				if _, ok := o.doneAt[s.ID]; !ok && s.done {
					o.doneAt[s.ID] = round - 1
				}
			}
			if round == at && victim > 0 {
				f.byID[victim].Cancel()
			} else if round == at {
				cancel()
			}
			return nil
		}
		if err := f.RunContext(ctx); victim >= 0 && err != nil {
			t.Fatalf("Run: %v", err)
		} else if victim < 0 && !errors.Is(err, context.Canceled) {
			t.Fatalf("Run with its context cancelled = %v, want context.Canceled", err)
		}
		for _, s := range f.sessions {
			if s.meter != nil {
				o.fileRows += s.meter.Count(sim.CtrFileRowsWritten)
			}
		}
		if a.memory > 0 {
			for i, s := range f.sessions[:len(opts)] {
				if s.Tree() != nil && s.Tree().Dump() != solo[i] {
					t.Errorf("session %d tree differs from a solo build with its %d-byte slice", s.ID, budget/capped)
				}
			}
		}
		checkSpansNest(t, col)
		if left, err := os.ReadDir(dir); err != nil || len(left) != 0 {
			t.Errorf("staging directory holds %d entries after Run (%v)", len(left), err)
		}
		return o
	}

	for _, procs := range []int{1, 4} {
		for _, a := range arms {
			t.Run(fmt.Sprintf("procs=%d/%s", procs, a.name), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				ref := run(t, a, 0, 0)
				if ref.fileRows == 0 || ref.f.IOMeter().Count(sim.CtrServerPages) == 0 {
					t.Fatalf("the reference run staged %d file rows and shared %d pages; the case needs both",
						ref.fileRows, ref.f.IOMeter().Count(sim.CtrServerPages))
				}
				scorer := ref.f.sessions[len(opts)]
				rng := rand.New(rand.NewSource(int64(procs)))
				for _, victim := range []int{2, scorer.ID} {
					rounds := []int{1}
					if last := ref.doneAt[victim]; last > 1 {
						if last > 2 {
							rounds = append(rounds, 2+rng.Intn(last-2))
						}
						rounds = append(rounds, last)
					}
					for _, at := range rounds {
						t.Run(fmt.Sprintf("session%d/round%d", victim, at), func(t *testing.T) {
							got := run(t, a, victim, at)
							for i, s := range got.f.sessions {
								if s.ID == victim {
									if !errors.Is(s.Err(), context.Canceled) || s.Tree() != nil {
										t.Errorf("cancelled session %d: Err %v, tree %v", s.ID, s.Err(), s.Tree() != nil)
									}
									if s.score != nil && !errors.Is(s.score.Err(), context.Canceled) {
										t.Errorf("cancelled scorer's result ended with %v", s.score.Err())
									}
									continue
								}
								if s.Err() != nil {
									t.Errorf("session %d left with %v", s.ID, s.Err())
								}
								refS := ref.f.sessions[i]
								if s.score != nil {
									if err := s.score.Err(); err != nil || !reflect.DeepEqual(s.score.Classes, refS.score.Classes) {
										t.Errorf("scorer's predictions differ from the uncancelled run's (err %v)", err)
									}
								} else if s.Tree().Dump() != refS.Tree().Dump() {
									t.Errorf("session %d tree differs from the uncancelled run's", s.ID)
								}
							}
						})
					}
				}
				// The run's own context cancelled: Run returns its error, and
				// every session's spans, files and result end all the same.
				t.Run("run/round2", func(t *testing.T) {
					got := run(t, a, -1, 2)
					if err := got.f.sessions[len(opts)].score.Err(); !errors.Is(err, context.Canceled) {
						t.Errorf("the scorer's result ended with %v, want context.Canceled", err)
					}
				})
			})
		}
	}
}

// TestDaemonCancelFrame: a TCancel on a fleet statement's connection cancels
// that statement's session inside a held two-session cohort — a SCORE TABLE
// before the run admits it, a BUILD TREE in the run's second round. The
// cancelled session leaves with context.Canceled and its client is answered
// with that error alone, a bare TError (a scorer cancelled before the run
// leaves before the first round's shared scan); the other session's tree dump is the uncancelled cohort's,
// byte for byte; the cancelled connection's handler exits once its client
// hangs up, as the driver does after a TCancel; the staging directory is
// empty; the daemon serves the next statement; and no goroutine outlives it.
// A client that hangs up mid-statement without a TCancel cancels it too.
func TestDaemonCancelFrame(t *testing.T) {
	const rows = 3000
	const survivor = "BUILD TREE MAXDEPTH 6 MINROWS 20 OUTPUT TREE"
	for _, tc := range []struct {
		name, victim string
		round        int  // the run round the cancel lands in; 0: before the run
		hangUp       bool // the victim's client closes its connection instead
	}{
		{"score", "SCORE TABLE cases USING m", 0, false},
		{"build", "BUILD TREE MAXDEPTH 5 MINROWS 10", 2, false},
		{"build/hang-up", "BUILD TREE MAXDEPTH 5 MINROWS 10", 2, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			dir := t.TempDir()
			pl := newPipeListener()
			d, tap, stop := serveOn(t, testServer(t, rows), DaemonConfig{
				Fleet: FleetConfig{Base: mw.Config{Staging: mw.StageFileAndMemory, Dir: dir}, MaxSessions: 8, ScanSharing: true},
			}, pl)
			victim, other, parker := pl.dial(t), pl.dial(t), pl.dial(t)
			if _, err := other.query("BUILD TREE MAXDEPTH 4 MODEL m"); err != nil {
				t.Fatal(err)
			}
			// cohort runs the victim's statement and the survivor's as one
			// held cohort, cancelling the victim's when cancel is set.
			cohort := func(cancel bool) (victimFrames, otherFrames []frame, v *Session) {
				t.Helper()
				tap.setArm(func(f *Fleet) {
					if len(f.sessions) != 2 || !cancel {
						return // the parking run, or the reference cohort
					}
					hold := func() error {
						if tc.hangUp {
							victim.nc.Close()
						} else {
							// The pipe hands the frame over only to a reader.
							victim.nc.SetWriteDeadline(time.Now().Add(10 * time.Second))
							defer victim.nc.SetWriteDeadline(time.Time{})
							if err := wire.WriteFrame(victim.nc, wire.TCancel, nil); err != nil {
								return fmt.Errorf("nobody read the TCancel: %w", err)
							}
						}
						select {
						case <-f.sessions[0].ctx.Done():
							return nil
						case <-time.After(10 * time.Second):
							return errors.New("the session was not cancelled")
						}
					}
					if tc.round == 0 {
						if err := hold(); err != nil {
							t.Error(err)
						}
						return
					}
					rounds := 0
					f.runHook = func() error {
						if rounds++; rounds == tc.round {
							return hold()
						}
						return nil
					}
				})
				defer tap.setArm(nil)
				queueCohort(t, d, parker,
					func() error { return victim.send(tc.victim) },
					func() error { return other.send(survivor) })
				var err error
				if victimFrames, err = victim.result(); err != nil && !(cancel && tc.hangUp) {
					t.Fatal(err)
				}
				if otherFrames, err = other.result(); err != nil {
					t.Fatal(err)
				}
				f := tap.last()
				if len(f.sessions) != 2 {
					t.Fatalf("the cohort ran as %d sessions, want 2", len(f.sessions))
				}
				if err := f.sessions[1].Err(); err != nil {
					t.Errorf("the survivor left with %v", err)
				}
				return victimFrames, otherFrames, f.sessions[0]
			}

			_, ref, v := cohort(false)
			if v.Err() != nil || ref[len(ref)-1].t != wire.TDone {
				t.Fatalf("the uncancelled cohort: victim Err %v, survivor's stream ends %v", v.Err(), ref[len(ref)-1])
			}
			got, gotOther, v := cohort(true)
			if !errors.Is(v.Err(), context.Canceled) {
				t.Errorf("the cancelled session's Err() = %v, want context.Canceled", v.Err())
			}
			if tc.hangUp {
				// Nobody is left to answer.
			} else if last := got[len(got)-1]; last.t != wire.TError || !strings.Contains(string(last.payload), context.Canceled.Error()) ||
				len(got) != 1 {
				t.Errorf("the cancelled statement was answered %v, ending %q; want a TError with %q", got, last.payload, context.Canceled)
			}
			sameFrames(t, "the survivor's tree next to a cancelled session", gotOther, ref)

			victim.nc.Close()
			waitFor(t, "the cancelled connection's handler to exit", func() bool {
				d.cmu.Lock()
				defer d.cmu.Unlock()
				return len(d.conns) == 2
			})
			if left, err := os.ReadDir(dir); err != nil || len(left) != 0 {
				t.Errorf("staging directory holds %d entries after the cancelled cohort (%v)", len(left), err)
			}
			fs, err := pl.dial(t).query(survivor)
			if err != nil {
				t.Fatal(err)
			}
			sameFrames(t, "the next statement, on a new connection", fs, ref)
			if fs, err := other.query("SCORE TABLE cases USING m"); err != nil || scoredRows(t, fs) != rows {
				t.Fatalf("SCORE TABLE after the cancel: %v", err)
			}

			other.nc.Close()
			parker.nc.Close()
			stop()
			waitFor(t, "every goroutine the test started to exit", func() bool { return runtime.NumGoroutine() <= before })
		})
	}
}
