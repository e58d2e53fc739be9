// Package app calls into package lib.
package app

import "deadapi/internal/lib"

// Run is exported outside internal/, so deadapi leaves it alone.
func Run() (float64, lib.Kind) { return lib.Used().Area(), lib.KindB }
