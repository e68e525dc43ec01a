// Command deadmain is the production caller of package deadlib.
package main

import (
	"fmt"

	deadlib "messengers/internal/analysis/analyzers/testdata/deadcode/lib"
)

func main() {
	fmt.Println(deadlib.ForMain(), deadlib.Total([]deadlib.Shape{deadlib.Square{Side: 2}}), deadlib.Nth(1))
}

func helper() {} // want "func helper"
