#!/usr/bin/env python3
"""Check a live stream's finished records against the sweep's report.

Every `finished` record of STREAM (a bench driver's --live-jsonl output)
must agree with the scenario of the same label in REPORT (its
--report-out file) on completed ops, ADCL winner and G1 status (the one
guideline of one scenario).  With --require-winner, at least one record
must carry an ADCL winner, so the winner comparison is known to have run.

usage: check_live_records.py REPORT.json STREAM.jsonl [--require-winner]
"""

import json
import sys


def main(argv):
    args = argv[1:]
    require_winner = '--require-winner' in args
    if require_winner:
        args.remove('--require-winner')
    if len(args) != 2:
        sys.exit(__doc__.strip().splitlines()[-1])
    report, stream = args
    rep = json.load(open(report))
    by_label = {s['label']: s for s in rep['scenarios']}
    g1 = next(g for g in rep['guidelines'] if g['id'] == 'G1')
    records = [json.loads(line) for line in open(stream)]
    fin = [r for r in records
           if r['type'] == 'scenario' and r['phase'] == 'finished']
    assert len(fin) == len(by_label) > 0, (len(fin), len(by_label))
    winners = 0
    for r in fin:
        s = by_label[r['label']]
        assert r['ops'] == s['ops_completed'], r['label']
        assert r.get('winner') == s.get('adcl', {}).get('winner'), r['label']
        winners += 'winner' in r
        g1_fails = any(v.startswith(r['label'] + ':')
                       for v in g1['violations'])
        status = 'FAIL' if g1_fails else 'pass'
        assert r['guidelines']['status'] == status, r['label']
    if require_winner:
        assert winners > 0, 'no finished record carries an ADCL winner'
    print(len(fin), 'finished records agree with the report,', winners,
          'with an ADCL winner')


if __name__ == '__main__':
    main(sys.argv)
