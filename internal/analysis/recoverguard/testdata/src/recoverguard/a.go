// Package recoverguard is the analyzer's fixture: each launch shape that
// must be flagged, next to the guarded shape that makes it legal.
package recoverguard

import "panicsafe"

func leak() {}

func bareDecl() {
	go leak() // want "go statement without a panic-capturing wrapper"
}

func bareLit() {
	go func() { // want "go statement without a panic-capturing wrapper"
		leak()
	}()
}

// A recover hidden inside a nested literal guards only that literal, not
// the launched goroutine.
func nestedRecoverDoesNotCount() {
	go func() { // want "go statement without a panic-capturing wrapper"
		f := func() {
			defer func() { _ = recover() }()
		}
		f()
	}()
}

// A plain defer without recover is not a boundary.
func deferWithoutRecover() {
	go func() { // want "go statement without a panic-capturing wrapper"
		defer leak()
	}()
}

func guardedLit() {
	go func() {
		defer func() {
			if p := recover(); p != nil {
				_ = p
			}
		}()
		leak()
	}()
}

// The boundary may sit past other defers (the engine's stream goroutines
// register close-the-channel first, recover second).
func guardedLitSecondDefer() {
	go func() {
		defer leak()
		defer func() { _ = recover() }()
	}()
}

func guardedByPanicsafeDefer() {
	go func() {
		defer panicsafe.Capture()
		leak()
	}()
}

func launchedThroughPanicsafe() {
	panicsafe.Go("fixture", leak) // not a go statement here at all
	go panicsafe.Forever()        // the wrapper package is trusted wholesale
}

// worker is a same-package declaration carrying its own recover
// boundary.
func worker() {
	defer func() { _ = recover() }()
	leak()
}

func guardedDecl() {
	go worker()
}

type pool struct{}

func (p *pool) loop() {
	defer func() { _ = recover() }()
}

func (p *pool) spin() {}

func (p *pool) spawn() {
	go p.loop()
	go p.spin() // want "go statement without a panic-capturing wrapper"
}

// Bounded build-time fan-outs may opt out with rationale.
func annotated() {
	//stsk:allow-bare-go (fixture: panics must surface to the build step)
	go leak()
}
