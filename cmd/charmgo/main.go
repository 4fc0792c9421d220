// Command charmgo is the CharmGo developer tool.
//
// The top subcommand is an htop-style live view of a running job's
// /introspect endpoint (see top.go).
//
// Usage:
//
//	charmgo top [-json] [-interval DUR] [-topk N] [http://host:port]
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() {
	flag.Usage = usage
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}
	switch args[0] {
	case "top":
		runTop(args[1:])
	default:
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage: charmgo <command> [flags]

Commands:
  top [-json] [-interval DUR] [-topk N] [url]
        Live htop-style view of a running job's /introspect endpoint
        (default http://127.0.0.1:9300). -json prints one raw snapshot
        and exits.
`)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "charmgo: %v\n", err)
	os.Exit(2)
}
