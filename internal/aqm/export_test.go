package aqm

import "ecnsharp/internal/core"

// Core exposes the underlying state machine (for tests and introspection).
func (e *ECNSharp) Core() *core.ECNSharp { return &e.core }
