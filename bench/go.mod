// The benchmark is a module of its own so that the repository's build file
// stays untouched; the module path sits under the root module's so that Go's
// internal-package rule lets it import piggyback/internal/....
module piggyback/bench

go 1.22

require piggyback v0.0.0

replace piggyback => ../
