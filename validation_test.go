package decentmon

import (
	"strings"
	"testing"

	"decentmon/internal/dist"
	"decentmon/internal/vclock"
)

// Misuse tests for WithValidation: every class of mis-wired event the
// session validator guards against must be rejected at the Feed/handle
// boundary with a diagnosable error, the session must stay usable after a
// rejection, and the relaxations a live session needs (cross-process
// timestamp interleaving) must still be accepted.

func validationSpec(t *testing.T) *Spec {
	t.Helper()
	spec, err := Compile("F (P0.p && P1.p)", PerProcessProps(2, "p"))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func validationSession(t *testing.T, opts ...Option) *Session {
	t.Helper()
	sess, err := NewSession(validationSpec(t), 2, append([]Option{WithValidation()}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sess.Close() })
	return sess
}

func wantFeedError(t *testing.T, sess *Session, e *Event, fragment string) {
	t.Helper()
	err := sess.Feed(e)
	if err == nil {
		t.Fatalf("event %+v accepted, want error containing %q", e, fragment)
	}
	if !strings.Contains(err.Error(), fragment) {
		t.Fatalf("event rejected with %q, want error containing %q", err, fragment)
	}
}

func TestValidationRejectsForgedRecvToken(t *testing.T) {
	sess := validationSession(t)
	// A token that was never produced by any Send of this session: the
	// stamper cannot know, the validator can.
	err := sess.Process(1).Recv(MsgToken{From: 0, To: 1, ID: 99, VC: []int{0, 0}}, 1)
	if err == nil || !strings.Contains(err.Error(), "never sent") {
		t.Fatalf("forged token: err = %v, want 'never sent'", err)
	}
}

func TestValidationRejectsReplayedToken(t *testing.T) {
	sess := validationSession(t)
	p0, p1 := sess.Process(0), sess.Process(1)
	tok, err := p0.Send(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := p1.Recv(tok, 1); err != nil {
		t.Fatal(err)
	}
	// Presenting the same token twice is a double delivery.
	if err := p1.Recv(tok, 1); err == nil || !strings.Contains(err.Error(), "already delivered") {
		t.Fatalf("replayed token: err = %v, want 'already delivered'", err)
	}
}

func TestValidationRejectsForeignSessionToken(t *testing.T) {
	// A token minted by a different session names a message this session
	// never sent.
	other, err := NewSession(validationSpec(t), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	tok, err := other.Process(0).Send(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	sess := validationSession(t)
	if err := sess.Process(1).Recv(tok, 1); err == nil || !strings.Contains(err.Error(), "never sent") {
		t.Fatalf("foreign token: err = %v, want 'never sent'", err)
	}
	// Even when the foreign message id collides with a real in-flight one,
	// the leaked clock gives it away: it references events this session
	// has not seen.
	realTok, err := sess.Process(0).Send(1, 1) // session's msg 1, VC [1 0]
	if err != nil {
		t.Fatal(err)
	}
	leaked := MsgToken{From: realTok.From, To: realTok.To, ID: realTok.ID, VC: []int{5, 0}}
	if err := sess.Process(1).Recv(leaked, 1); err == nil || !strings.Contains(err.Error(), "not yet seen") {
		t.Fatalf("leaked clock: err = %v, want 'not yet seen'", err)
	}
	// The real token still works: nothing was consumed by the rejections.
	if err := sess.Process(1).Recv(realTok, 1); err != nil {
		t.Fatalf("legitimate receive after rejections: %v", err)
	}
}

func TestValidationRejectsOutOfOrderFeed(t *testing.T) {
	sess := validationSession(t)
	wantFeedError(t, sess, &Event{Proc: 0, SN: 2, Type: 0, Peer: -1, State: 1, VC: vclock.VC{2, 0}, Time: 1}, "out of order")
	// The rejection leaves the validator untouched: the correct first
	// event is still accepted.
	if err := sess.Feed(&Event{Proc: 0, SN: 1, Type: 0, Peer: -1, State: 1, VC: vclock.VC{1, 0}, Time: 1}); err != nil {
		t.Fatalf("session unusable after rejection: %v", err)
	}
}

func TestValidationRejectsMalformedEvents(t *testing.T) {
	cases := []struct {
		name     string
		e        *Event
		fragment string
	}{
		{"nil clock", &Event{Proc: 0, SN: 1, Peer: -1, State: 1, Time: 1}, "clock"},
		{"short clock", &Event{Proc: 0, SN: 1, Peer: -1, State: 1, VC: vclock.VC{1}, Time: 1}, "clock"},
		{"clock/sn disagree", &Event{Proc: 0, SN: 1, Peer: -1, State: 1, VC: vclock.VC{2, 0}, Time: 1}, "disagrees"},
		{"unseen peer event", &Event{Proc: 0, SN: 1, Peer: -1, State: 1, VC: vclock.VC{1, 3}, Time: 1}, "not yet"},
		{"nonexistent process", &Event{Proc: 7, SN: 1, Peer: -1, State: 1, VC: vclock.VC{1, 0}, Time: 1}, "nonexistent process"},
		{"send to self", &Event{Proc: 0, SN: 1, Type: dist.Send, Peer: 0, MsgID: 1, State: 1, VC: vclock.VC{1, 0}, Time: 1}, "invalid process"},
		{"nil event", nil, "nil event"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sess := validationSession(t)
			wantFeedError(t, sess, c.e, c.fragment)
		})
	}
}

func TestValidationRejectsPerProcessTimeRegression(t *testing.T) {
	sess := validationSession(t)
	if err := sess.Feed(&Event{Proc: 0, SN: 1, Peer: -1, State: 0, VC: vclock.VC{1, 0}, Time: 5}); err != nil {
		t.Fatal(err)
	}
	wantFeedError(t, sess, &Event{Proc: 0, SN: 2, Peer: -1, State: 1, VC: vclock.VC{2, 0}, Time: 3}, "precedes")
}

func TestValidationAllowsConcurrentTimestampInterleaving(t *testing.T) {
	// Cross-process timestamp regressions are legal in a live feed — the
	// strict stream ordering applies to codecs, not sessions.
	sess := validationSession(t)
	if err := sess.Feed(&Event{Proc: 0, SN: 1, Peer: -1, State: 0, VC: vclock.VC{1, 0}, Time: 5}); err != nil {
		t.Fatal(err)
	}
	if err := sess.Feed(&Event{Proc: 1, SN: 1, Peer: -1, State: 0, VC: vclock.VC{0, 1}, Time: 2}); err != nil {
		t.Fatalf("concurrent interleaving rejected: %v", err)
	}
}

// TestValidationHandleFlow: a correctly wired handle-driven session passes
// validation end to end and produces the same verdict as an unvalidated
// one.
func TestValidationHandleFlow(t *testing.T) {
	run := func(opts ...Option) *RunResult {
		sess, err := NewSession(validationSpec(t), 2, opts...)
		if err != nil {
			t.Fatal(err)
		}
		p0, p1 := sess.Process(0), sess.Process(1)
		if err := p0.Internal(1); err != nil {
			t.Fatal(err)
		}
		tok, err := p0.Send(1, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := p1.Recv(tok, 1); err != nil {
			t.Fatal(err)
		}
		if err := p0.End(); err != nil {
			t.Fatal(err)
		}
		if err := p1.End(); err != nil {
			t.Fatal(err)
		}
		res, err := sess.Close()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain := run()
	validated := run(WithValidation())
	if verdictSetString(plain.Verdicts) != verdictSetString(validated.Verdicts) {
		t.Errorf("validated session verdicts %v != plain %v", validated.Verdicts, plain.Verdicts)
	}
	if !validated.Verdicts[Top] {
		t.Errorf("goal reached but ⊤ missing: %v", validated.Verdicts)
	}
}

// TestValidationOptionRejections: replay entry points refuse the option
// instead of silently ignoring it.
func TestValidationOptionRejections(t *testing.T) {
	spec := validationSpec(t)
	ts := Generate(GenConfig{N: 2, InternalPerProc: 3, CommMu: 2, Seed: 1, Suffixes: []string{"p"}})
	if _, err := Run(spec, ts, WithValidation()); err == nil || !strings.Contains(err.Error(), "WithValidation") {
		t.Errorf("Run accepted WithValidation: %v", err)
	}
	if _, err := RunStream(spec, ts.Stream(), WithValidation()); err == nil || !strings.Contains(err.Error(), "WithValidation") {
		t.Errorf("RunStream accepted WithValidation: %v", err)
	}
	if _, err := RunBounded(spec, ts.Stream(), WithValidation()); err == nil || !strings.Contains(err.Error(), "WithValidation") {
		t.Errorf("RunBounded accepted WithValidation: %v", err)
	}
}

// TestValidationHandleUsableAfterTokenRejection pins the pre-stamp token
// check: a rejected token must leave the stamper untouched, so the handle
// keeps working — the whole point of validating at the boundary.
func TestValidationHandleUsableAfterTokenRejection(t *testing.T) {
	sess := validationSession(t)
	p0, p1 := sess.Process(0), sess.Process(1)
	if err := p1.Recv(MsgToken{From: 0, To: 1, ID: 99, VC: []int{0, 0}}, 1); err == nil {
		t.Fatal("forged token accepted")
	}
	// The rejected token must not have advanced p1's clock: the legit flow
	// still validates end to end.
	if err := p1.Internal(1); err != nil {
		t.Fatalf("handle broken after token rejection: %v", err)
	}
	tok, err := p0.Send(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := p1.Recv(tok, 1); err != nil {
		t.Fatalf("legitimate receive rejected after earlier token rejection: %v", err)
	}
	res, err := sess.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verdicts[Top] {
		t.Errorf("goal reached but ⊤ missing: %v", res.Verdicts)
	}
}
