"""The ``repro analyze`` subcommand: run the contract checkers on a tree.

Exit status is the contract: 0 when the tree is clean, 1 when any finding
survives (CI fails the commit), 2 on usage errors.
"""

import json
import sys

from repro.analysis.core import REGISTRY, analyze_paths, load_default_rules


def add_arguments(parser):
    """Attach the analyze arguments to *parser* (shared with repro.cli)."""
    parser.add_argument("paths", nargs="*", default=["src/repro"],
                        help="files or directories to analyze "
                             "(default: src/repro)")
    parser.add_argument("--rules", default=None,
                        help="comma-separated rule ids to run "
                             "(default: all registered rules)")
    parser.add_argument("--list-rules", action="store_true",
                        help="list registered rules and exit")
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="findings output format (default: text)")
    return parser


def run(args):
    """Execute the analyze command for parsed *args*; returns exit status."""
    load_default_rules()
    if args.list_rules:
        for rule_id, checker in sorted(REGISTRY.items()):
            print(f"{rule_id}  {checker.description}")
        return 0
    rules = None
    if args.rules is not None:
        rules = [rule.strip().upper() for rule in args.rules.split(",")
                 if rule.strip()]
    try:
        findings = analyze_paths(args.paths, rules=rules)
    except ValueError as error:
        print(f"analyze error: {error}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(json.dumps([finding.as_dict() for finding in findings],
                         indent=2))
    else:
        for finding in findings:
            print(finding.render())
        noun = "finding" if len(findings) == 1 else "findings"
        checked = "all rules" if rules is None else ", ".join(rules)
        print(f"repro analyze: {len(findings)} {noun} ({checked})")
    return 1 if findings else 0
