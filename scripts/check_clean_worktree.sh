#!/bin/sh
# Tier-1 verify from a clean checkout: check HEAD out into a fresh git
# worktree — which holds only committed files — and build and test there.
# A fixture that exists in a developer's tree but is swallowed by
# .gitignore (the v1 recio fixture was, behind `*.rec`) passes locally and
# fails for everyone else; here it fails first.
set -eu

root=$(git rev-parse --show-toplevel)
dir=$(mktemp -d)
cleanup() {
	git -C "$root" worktree remove --force "$dir" >/dev/null 2>&1 || rm -rf "$dir"
	git -C "$root" worktree prune
}
trap cleanup EXIT

git -C "$root" worktree add --detach "$dir" HEAD >/dev/null
cd "$dir"
go build ./...
go test ./...
