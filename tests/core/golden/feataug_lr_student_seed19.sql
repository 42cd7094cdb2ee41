SELECT session_id, MEDIAN(level) AS feature
FROM R
GROUP BY session_id

SELECT session_id, SUM(hover_duration) AS feature
FROM R
WHERE event_type = 'notebook_click' AND level >= 18.782654342530073
GROUP BY session_id

SELECT session_id, MAX(level) AS feature
FROM R
WHERE event_type = 'notebook_click' AND room = 'tunic.kohlcenter'
GROUP BY session_id

SELECT session_id, MAD(hover_duration) AS feature
FROM R
GROUP BY session_id

SELECT session_id, SUM(level) AS feature
FROM R
WHERE elapsed_time >= 1016.4767787476098 AND elapsed_time <= 2782.7522335609633
GROUP BY session_id

SELECT session_id, MAD(level) AS feature
FROM R
WHERE event_type = 'cutscene_click' AND room = 'tunic.historicalsociety'
GROUP BY session_id

SELECT session_id, MAX(hover_duration) AS feature
FROM R
WHERE room = 'tunic.library'
GROUP BY session_id
