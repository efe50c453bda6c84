// Codesize prints the Table 3 analogue for this repository:
// implementation code size per component, counting semicolon lines as
// the paper does plus plain source lines (Go elides most semicolons).
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bench"
)

func main() {
	root := flag.String("root", ".", "repository root")
	flag.Parse()
	t, err := bench.Tab3(*root)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Print(t.Format())
}
