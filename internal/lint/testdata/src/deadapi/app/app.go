// Package app calls into package lib. It is a library outside internal/:
// deadapi holds its exported names to the same rule as lib's.
package app

import "deadapi/internal/lib"

// Run is called by the main package cmd/tool, so it stays quiet.
func Run() (float64, lib.Kind) { return lib.Used().Area(), lib.KindB }

func Uncalled() {} // want `Uncalled is referenced by no non-test file`

func TestOnly() {} // want `TestOnly is referenced by no non-test file`

//blast:allow deadapi -- fixture: an Example in app_test.go documents it
func Documented() {}
