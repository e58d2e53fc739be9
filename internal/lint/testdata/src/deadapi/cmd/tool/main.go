// Command tool is the deadapi fixture's main package: it calls app.Run,
// and its own exported names are no API, so deadapi leaves them alone.
package main

import "deadapi/app"

func Exported() {}

func main() { app.Run() }
